"""The built-in corpus and directory loading."""

import json

import pytest

from ringaudit.corpus import DOCUMENTS, Corpus, default_corpus, load_corpus
from ringaudit.ringfile import RingFileError, document_for
from ringaudit.rings import make_zn


def test_corpus_size_and_composition(corpus):
    assert len(corpus) == 76
    labels = [r.label for r in corpus]
    assert len(set(labels)) == 76
    assert sum(1 for l in labels if l.startswith("Z_") and "x" not in l) == 63
    assert [l for l in labels if l.startswith("B_")] == ["B_1", "B_2", "B_3", "B_4"]
    assert [l for l in labels if "x" in l and l.startswith("Z_")] == [
        "Z_2xZ_3", "Z_2xZ_4", "Z_4xZ_9", "Z_2xZ_2xZ_2",
    ]
    assert labels[-5:] == ["A=F2[x,y]/(x,y)^2", "F_4", "F2[x]/(x^2)", "F3[x]/(x^2)", "F2[x]/(x^3)"]


def test_corpus_rings_write_back_their_documents(corpus):
    for doc, ring in zip(DOCUMENTS, corpus, strict=True):
        assert document_for(ring) == {**doc, "label": ring.label}


def test_corpus_ring_a_shape(ring_a):
    assert ring_a.order == 8
    x, y = 2, 4
    assert ring_a.mul(x, x) == 0
    assert ring_a.mul(x, y) == 0
    assert ring_a.mul(y, y) == 0


def test_corpus_orders(corpus):
    assert corpus.by_label("Z_64").order == 64
    assert corpus.by_label("B_4").order == 16
    assert corpus.by_label("Z_4xZ_9").order == 36
    assert corpus.by_label("F3[x]/(x^2)").order == 9
    assert corpus.by_label("F2[x]/(x^3)").order == 8


def test_by_label_missing(corpus):
    with pytest.raises(KeyError):
        corpus.by_label("Z_1000000")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Corpus((make_zn(4), make_zn(4)))


def test_load_corpus_from_directory(tmp_path):
    (tmp_path / "a_z6.json").write_text(json.dumps({"kind": "zn", "n": 6}))
    (tmp_path / "b_bool.json").write_text(json.dumps({"kind": "boolean", "atoms": 2}))
    corpus = load_corpus(tmp_path)
    assert [r.label for r in corpus] == ["Z_6", "B_2"]


def test_load_corpus_rejects_missing_dir(tmp_path):
    with pytest.raises(RingFileError):
        load_corpus(tmp_path / "nope")
    with pytest.raises(RingFileError, match="no .*ring files"):
        load_corpus(tmp_path)
