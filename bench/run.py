"""ringaudit benchmark driver (standard library plus the package itself).

    python3 bench/run.py --workload corpus-audit --seed 1 --seconds 25 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):
  corpus-audit     default_corpus, run_all_claims, render_report(..., "json")
  scale-ladder     fixed rings beyond the corpus, one layer per rung
  untrusted-files  seeded ring files through cli.main ideals and spectrum

One process runs the load sequentially, passes one after another until
--seconds have gone by; every pass builds fresh rings. Every operation's
output is checked; a wrong one counts as failed. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end ones, from an
untraced run, with times scaled to a reference host speed (see
CALIB_REF_S; stderr shows the unscaled run_s). With --trace 1 they are its
per_layer ones, unscaled, from passes that alternate untraced and traced
(the tracer wraps the layers' public functions from outside the package).
The package is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from ringfiles import ring_files
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus-audit", "scale-ladder", "untrusted-files")
IMPORT_SAMPLES = 7
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ringaudit; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


# The speed of a shared host drifts by 15-40% from one minute to the next,
# alike for wall and CPU time, more than any bound could allow. End-to-end
# times are therefore scaled to a host on which one calibration slice takes
# CALIB_REF_S: slices are timed before and after every pass, and the pass's
# times are multiplied by CALIB_REF_S over the mean of the two medians. The
# slice is fixed work of the engine's kind (tuple rows, int bitmasks, sets)
# that no change to the package can alter.
CALIB_REF_S = 0.0125
CALIB_SLICES = 3
_CALIB_ROWS = tuple(tuple((a * b + a) % 48 for b in range(48)) for a in range(48))


def calibrate() -> float:
    """Seconds for one calibration slice, with the collector off so that the
    program's heap cannot slow it down."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        seen = set()
        for rep in range(40):
            for a, row in enumerate(_CALIB_ROWS):
                mask = 0
                for v in row:
                    mask |= 1 << v
                seen.add((mask, a, rep))
            kept = sorted(seen)
            seen = set(kept[: len(kept) // 2])
        return perf_counter() - start
    finally:
        gc.enable()


def live_rings(ring_class) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, ring_class))


class Run:
    """Passes of one workload, with each failed operation recorded."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []
        self.reference = None  # outputs of the first untraced pass
        self.calib: list[float] = []
        self.gaps: list[float] = []  # median slice time between passes

    def calibrate_gap(self) -> None:
        slices = [calibrate() for _ in range(CALIB_SLICES)]
        self.calib.extend(slices)
        self.gaps.append(statistics.median(slices))

    def scale(self, gap: int) -> float:
        """The factor for what ran between gaps[gap] and gaps[gap + 1]."""
        return 2 * CALIB_REF_S / (self.gaps[gap] + self.gaps[gap + 1])

    def one_pass(self, traced: bool = False):
        """(pass, wall seconds, tracer or None); pass is None if it raised.
        A calibration gap precedes every pass."""
        self.calibrate_gap()
        gc.collect()
        tracer = Tracer() if traced else None
        start = perf_counter()
        try:
            if tracer is None:
                result = self.workload.run_pass()
            else:
                with tracer:
                    result = self.workload.run_pass()
        except Exception as exc:  # a crashed pass is one failed operation
            self.attempted += 1
            self.errors.append(f"pass raised {type(exc).__name__}: {exc}")
            return None, perf_counter() - start, tracer
        wall = perf_counter() - start
        outputs = [op.output for op in result.ops]
        for index, op in enumerate(result.ops):
            self.attempted += 1
            error = self.workload.verify(index, op.output)
            if error is None and self.reference is not None and op.output != self.reference[index]:
                error = f"operation {index}: traced output differs from untraced"
            if error is not None:
                self.errors.append(error)
        if self.reference is None and not traced:
            self.reference = outputs
        return result, wall, tracer


def _tail(workload, samples: list[float]) -> float:
    """The workload's fixed tail percentile: the highest that its runs leave
    at least 10 operations beyond, or the median when none does."""
    if workload.tail_percentile == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[workload.tail_percentile - 1]


def measure(workload, seconds: float) -> tuple[Run, dict[str, float]]:
    run = Run(workload)
    run.calibrate_gap()
    setup_import = import_seconds()
    passes = []  # (pass, index of the gap before it)
    peak_rss_mb = None
    start = perf_counter()
    for count in itertools.count(1):
        result, _, _ = run.one_pass()
        if result is not None:
            passes.append((result, len(run.gaps) - 1))
        if peak_rss_mb is None:
            # one process, one pass, as one CLI invocation sees it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if perf_counter() - start >= seconds and count >= workload.min_passes:
            break
    run.calibrate_gap()
    if not passes:
        raise RuntimeError("every pass raised: " + "; ".join(run.errors[:3]))
    op_s = [op.seconds * run.scale(gap) for p, gap in passes for op in p.ops]
    metrics = {
        "setup_s": setup_import * run.scale(0) + statistics.median(p.setup_s * run.scale(gap) for p, gap in passes),
        "run_s": statistics.median(p.run_s * run.scale(gap) for p, gap in passes),
        "op_ms_p50": 1000.0 * statistics.median(op_s),
        "op_ms_tail": 1000.0 * _tail(workload, op_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (run.attempted - len(run.errors)) / run.attempted,
    }
    unscaled = statistics.median(p.run_s for p, _ in passes)
    print(
        f"{workload.name}: {len(passes)} passes, {len(op_s)} ops, tail p{workload.tail_percentile}; "
        f"host.calib_s {statistics.median(run.calib):.5f}; unscaled run_s {unscaled:.4f}",
        file=sys.stderr,
    )
    return run, metrics


def measure_traced(workload, seconds: float) -> tuple[Run, dict[str, float]]:
    ring_class = sys.modules["ringaudit.rings"].FiniteRing
    claim_ids = sys.modules["ringaudit.claims"].CLAIM_IDS
    run = Run(workload)
    untraced, traced, walls, leaked = [], [], ([], []), []
    start = perf_counter()
    while True:
        before = live_rings(ring_class)
        result, wall, _ = run.one_pass()
        if result is not None:
            untraced.append(result)
            walls[0].append(wall)
            leaked.append(live_rings(ring_class) - before)
        result, wall, tracer = run.one_pass(traced=True)
        if result is not None:
            traced.append(tracer.metrics())
            walls[1].append(wall)
        if perf_counter() - start >= seconds:
            break
    run.calibrate_gap()
    if not untraced or not traced:
        raise RuntimeError("passes raised: " + "; ".join(run.errors[:3]))
    metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    metrics["rings.live_after_pass"] = statistics.median(leaked)
    for claim in claim_ids:
        metrics[f"claims.{claim}.s"] = statistics.median(p.claim_s[claim] for p in untraced)
    metrics["host.calib_s"] = statistics.median(run.calib)
    metrics["trace.overhead_frac"] = statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0
    print(f"{workload.name}: {len(untraced)} untraced and {len(traced)} traced passes", file=sys.stderr)
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (SRC / "ringaudit" / "__init__.py").is_file():
        print(f"error: no ringaudit package under {SRC}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        if args.workload == "untrusted-files":
            # generated before the package is imported: excluded from every
            # metric, and below the peak resident memory the passes reach
            files = ring_files(args.seed)
            paths = []
            for f in files:
                path = Path(tmp) / f"{f.name}.json"
                path.write_text(f.text)
                paths.append(path)
        sys.path.insert(0, str(SRC))
        import workloads  # imports ringaudit, and with it numpy

        if not Path(workloads.rings.__file__).resolve().is_relative_to(SRC):
            print(f"error: ringaudit was imported from outside {SRC}", file=sys.stderr)
            return 2
        if args.workload == "corpus-audit":
            workload = workloads.CorpusAudit()
        elif args.workload == "scale-ladder":
            workload = workloads.ScaleLadder()
        else:
            workload = workloads.UntrustedFiles(files, paths)
        run, metrics = (measure_traced if args.trace else measure)(workload, args.seconds)

    for error in run.errors[:5]:
        print(f"failed: {error}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
