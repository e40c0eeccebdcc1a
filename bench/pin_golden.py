"""Pin the corpus-audit golden: the default-corpus JSON report, exactly as
`ringaudit audit --json` prints it, with every elapsed_ms set to 0.

    python3 bench/pin_golden.py

Run it only when a change is meant to alter the report; the benchmark
counts every pass whose report differs from the golden as failed.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    rows = workloads.claims.run_all_claims(workloads.corpus.default_corpus())
    workloads.GOLDEN.write_text(workloads.strip_elapsed(workloads.reports.render_report(rows, "json")))
