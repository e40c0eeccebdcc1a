"""The built-in ring corpus and corpus loading from ring-file directories."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .ringfile import RingFileError, load_ring_file, ring_from_document
from .rings import FiniteRing

__all__ = ["DOCUMENTS", "Corpus", "default_corpus", "load_corpus"]


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of rings with unique labels."""

    rings: tuple[FiniteRing, ...]

    def __post_init__(self):
        labels = [r.label for r in self.rings]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate ring labels in corpus: {dupes}")

    def __iter__(self):
        return iter(self.rings)

    def __len__(self) -> int:
        return len(self.rings)

    def by_label(self, label: str) -> FiniteRing:
        for ring in self.rings:
            if ring.label == label:
                return ring
        raise KeyError(label)


# The corpus in docs/ring_format.md notation; ring_from_document builds each
# ring, validating the algebras' tables as it does those of any ring file.
DOCUMENTS = (
    *({"kind": "zn", "n": n} for n in range(2, 65)),
    *({"kind": "boolean", "atoms": k} for k in range(1, 5)),
    *({"kind": "product", "factors": [{"kind": "zn", "n": n} for n in ns]}
      for ns in ((2, 3), (2, 4), (4, 9), (2, 2, 2))),
    # A = F2[x,y] modulo all degree-2 monomials: x^2 = xy = y^2 = 0
    {
        "kind": "algebra", "label": "A=F2[x,y]/(x,y)^2", "p": 2, "basis_names": ["1", "x", "y"],
        "mul": {"x*x": "0", "x*y": "0", "y*y": "0"},
    },
    {"kind": "algebra", "label": "F_4", "p": 2, "basis_names": ["1", "x"], "mul": {"x*x": "1+x"}},
    {"kind": "algebra", "label": "F2[x]/(x^2)", "p": 2, "basis_names": ["1", "x"], "mul": {"x*x": "0"}},
    {"kind": "algebra", "label": "F3[x]/(x^2)", "p": 3, "basis_names": ["1", "x"], "mul": {"x*x": "0"}},
    # basis (1, x, x2) with x * x = x2 and everything of degree >= 3 zero
    {
        "kind": "algebra", "label": "F2[x]/(x^3)", "p": 2, "basis_names": ["1", "x", "x2"],
        "mul": {"x*x": "x2", "x*x2": "0", "x2*x2": "0"},
    },
)


def default_corpus() -> Corpus:
    """The desk-scale audit corpus: 63 modular rings, 4 Boolean rings,
    4 direct products, 5 small algebras (76 rings), built from DOCUMENTS."""
    return Corpus(tuple(ring_from_document(d) for d in DOCUMENTS))


def load_corpus(directory) -> Corpus:
    """Load every *.json ring file in a directory, in sorted name order."""
    root = Path(directory)
    if not root.is_dir():
        raise RingFileError(f"corpus directory {directory!r} does not exist")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise RingFileError(f"no *.json ring files in {directory!r}")
    return Corpus(tuple(load_ring_file(p) for p in paths))
