"""The mutation gate: apply each mutant of tools/mutants.json to a copy of
the tree and check that its named test fails on it.

Each entry names a file, an exact old text (found there exactly once), the
new text and the test expected to kill the mutant. The tree is copied once
into a temporary directory; each mutant is written there and undone after
its run, so the checkout is never edited. A mutant that its named test
passes is a survivor, even if some other test would fail on it: the list
is wrong until it names a test that kills each mutant.

Before any mutant runs, the named tests must pass on the unmutated copy.
Each run is a fresh Python process that writes no bytecode, so no mutant
reads another's, and has a time limit and an address-space limit: a mutant
that loops or allocates without end is stopped, and counts as killed.

Usage: python tools/mutants.py
Exit status: 0 when every mutant is killed, 1 on any survivor, 2 when the
list does not apply to the tree or a named test fails unmutated.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench*", "*.egg-info")
TIMEOUT_S = 300
MEMORY_BYTES = 2 << 30


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def passes(tree: Path, *tests: str) -> bool:
    """Whether pytest passes the tests in the copy, within the limits."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        for m in mutants:
            count = (tree / m["file"]).read_text().count(m["old"])
            if count != 1:
                print(f"{m['id']}: the old text occurs {count} times in {m['file']}")
                return 2
        if not passes(tree, *sorted({m["test"] for m in mutants})):
            print("a named test fails on the unmutated tree")
            return 2
        survivors = []
        for m in mutants:
            path = tree / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["old"], m["new"]))
            start = time.monotonic()
            try:
                killed = not passes(tree, m["test"])
            finally:
                path.write_text(original)
            if not killed:
                survivors.append(m["id"])
            print(f"{'killed' if killed else 'SURVIVED':<8} {m['id']} ({time.monotonic() - start:.0f} s)", flush=True)
    print(f"{len(mutants)} mutants run, {len(survivors)} survived" + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
