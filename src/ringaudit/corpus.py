"""The built-in ring corpus and corpus loading from ring-file directories."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .ringfile import RingFileError, _sc_with_unity, load_ring_file
from .rings import FiniteRing, make_algebra, make_boolean, make_product, make_zn

__all__ = ["Corpus", "default_corpus", "load_corpus"]


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


def _algebra_rings() -> list[FiniteRing]:
    # A = F2[x,y] modulo all degree-2 monomials: x^2 = xy = y^2 = 0
    ring_a = make_algebra(
        2, 3,
        _sc_with_unity(3, {(1, 1): (0, 0, 0), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)}),
        basis_names=("1", "x", "y"),
        label="A=F2[x,y]/(x,y)^2",
    )
    f4 = make_algebra(
        2, 2,
        _sc_with_unity(2, {(1, 1): (1, 1)}),  # x^2 = 1 + x
        basis_names=("1", "x"),
        label="F_4",
    )
    f2_dual = make_algebra(
        2, 2,
        _sc_with_unity(2, {(1, 1): (0, 0)}),
        basis_names=("1", "x"),
        label="F2[x]/(x^2)",
    )
    f3_dual = make_algebra(
        3, 2,
        _sc_with_unity(2, {(1, 1): (0, 0)}),
        basis_names=("1", "x"),
        label="F3[x]/(x^2)",
    )
    # basis (1, x, x2) with x * x = x2 and everything of degree >= 3 zero
    f2_cubic = make_algebra(
        2, 3,
        _sc_with_unity(3, {(1, 1): (0, 0, 1), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)}),
        basis_names=("1", "x", "x2"),
        label="F2[x]/(x^3)",
    )
    return [ring_a, f4, f2_dual, f3_dual, f2_cubic]


def default_corpus() -> Corpus:
    """The desk-scale audit corpus: 63 modular rings, 4 Boolean rings,
    4 direct products, 5 small algebras (76 rings)."""
    rings: list[FiniteRing] = []
    rings.extend(make_zn(n) for n in range(2, 65))
    rings.extend(make_boolean(k) for k in range(1, 5))
    rings.append(make_product([make_zn(2), make_zn(3)]))
    rings.append(make_product([make_zn(2), make_zn(4)]))
    rings.append(make_product([make_zn(4), make_zn(9)]))
    rings.append(make_product([make_zn(2), make_zn(2), make_zn(2)]))
    rings.extend(_algebra_rings())
    return Corpus(tuple(rings))


def load_corpus(directory) -> Corpus:
    """Load every *.json ring file in a directory, in sorted name order."""
    root = Path(directory)
    if not root.is_dir():
        raise RingFileError(f"corpus directory {directory!r} does not exist")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise RingFileError(f"no *.json ring files in {directory!r}")
    return Corpus(tuple(load_ring_file(p) for p in paths))
