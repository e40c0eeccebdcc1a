"""CLI surface: subcommands, formats, exit codes."""

import json
from pathlib import Path

import pytest

from ringaudit.cli import main
from ringaudit.quotients import ENDO_CAP_ENV

RING_FILES = sorted((Path(__file__).resolve().parents[1] / "rings").glob("*.json"))
# expected stdout of each command on each shipped ring file
PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json").read_text())


@pytest.fixture()
def z12_file(tmp_path):
    path = tmp_path / "z12.json"
    path.write_text(json.dumps({"kind": "zn", "n": 12}))
    return str(path)


@pytest.fixture()
def z6_file(tmp_path):
    path = tmp_path / "z6.json"
    path.write_text(json.dumps({"kind": "zn", "n": 6}))
    return str(path)


def test_describe(z12_file, capsys):
    assert main(["describe", z12_file]) == 0
    out = capsys.readouterr().out
    assert "label: Z_12" in out
    assert "order: 12" in out
    assert "is_pprir: True" in out


def test_describe_corrupted_table_exits_2(tmp_path, capsys):
    doc = {
        "kind": "table",
        "order": 3,
        "zero": 0,
        "one": 1,
        "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", str(path)]) == 2
    err = capsys.readouterr().err
    assert "axiom" in err


def test_describe_unknown_kind_exits_2(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"kind": "monoid"}))
    assert main(["describe", str(path)]) == 2
    assert "unknown ring kind" in capsys.readouterr().err


def test_describe_missing_file_exits_2(tmp_path, capsys):
    assert main(["describe", str(tmp_path / "ghost.json")]) == 2


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"kind": "boolean", "atoms": 40}, "order 2**40 exceeds MAX_ORDER = 2048"),
        ({"kind": "zn", "n": 1000000000000}, "order 1000000000000 exceeds MAX_ORDER = 2048"),
    ],
)
def test_oversized_ring_file_exits_2(tmp_path, capsys, doc, reason):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", str(path)]) == 2
    assert reason in capsys.readouterr().err


Z3_TABLE = {
    "kind": "table", "order": 3, "zero": 0, "one": 1,
    "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
}
NAMES_ERROR = "table element_names must be a list of 3 distinct strings"


@pytest.mark.parametrize(
    "text, reason",
    [
        (json.dumps({**Z3_TABLE, "element_names": 5}), NAMES_ERROR),
        (json.dumps({**Z3_TABLE, "element_names": "xyz"}), NAMES_ERROR),
        (json.dumps({**Z3_TABLE, "element_names": ["a", "a", "b"]}), NAMES_ERROR),
        (json.dumps({**Z3_TABLE, "element_names": ["a", "b", 2]}), NAMES_ERROR),
        (json.dumps({"kind": "zn", "n": 6, "label": 7}), "ring document label must be a string"),
        (json.dumps({"kind": "product", "factors": [{"kind": "zn", "n": 2, "label": None}]}),
         "ring document label must be a string"),
        ('{"kind": "product", "factors": [' * 5000 + '{"kind": "zn", "n": 2}' + "]}" * 5000,
         "document is nested too deeply"),
    ],
    ids=["names-int", "names-str", "names-duplicate", "names-non-str", "label-int", "factor-label-null", "deep"],
)
def test_malformed_ring_file_exits_2(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["describe", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


def test_ideals_text_and_json(z6_file, capsys):
    assert main(["ideals", z6_file]) == 0
    out = capsys.readouterr().out
    assert "4 ideals" in out
    assert main(["ideals", z6_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ring"] == "Z_6"
    assert len(doc["ideals"]) == 4
    assert all(len(e) == 2 for e in doc["containment"])


def test_ideals_dot(z6_file, capsys):
    assert main(["ideals", z6_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "Z_6"')


def test_spectrum(z12_file, capsys):
    assert main(["spectrum", z12_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["{0,2,4,6,8,10}", "{0,3,6,9}"]


def test_classify_ideal(z12_file, capsys):
    assert main(["classify-ideal", z12_file, "--elements", "4"]) == 0
    out = capsys.readouterr().out
    assert "is_prime: False" in out
    assert "is_primary: True" in out
    assert "generator: 4" in out
    assert "radical: {0,2,4,6,8,10}" in out


def test_classify_ideal_by_name(z12_file, capsys):
    assert main(["classify-ideal", z12_file, "--elements", "2, 3"]) == 0
    out = capsys.readouterr().out
    assert "proper: False" in out


def test_classify_ideal_unknown_element(z12_file, capsys):
    assert main(["classify-ideal", z12_file, "--elements", "q"]) == 2
    assert "unknown element" in capsys.readouterr().err


def test_quotient(z6_file, capsys):
    assert main(["quotient", z6_file, "--elements", "2"]) == 0
    out = capsys.readouterr().out
    assert "order: 2" in out
    assert main(["quotient", z6_file, "--elements", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 2
    assert doc["cosets"] == [["0", "2", "4"], ["1", "3", "5"]]


def test_quotient_by_unit_exits_2(z6_file, capsys):
    assert main(["quotient", z6_file, "--elements", "1"]) == 2


def test_audit_single_claim(capsys):
    assert main(["audit", "--claim", "PROP3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 76
    assert all(line.endswith("verified") for line in lines)


def test_audit_expect_verified_failure(capsys):
    assert main(["audit", "--claim", "THM2", "--expect-verified", "THM2"]) == 1
    captured = capsys.readouterr()
    assert "THM2 A=F2[x,y]/(x,y)^2 refuted {0,x,y,x+y}" in captured.out
    assert "expectation failed" in captured.err


def test_audit_expect_verified_success(capsys):
    assert main(["audit", "--claim", "PROP2", "--expect-verified", "PROP2"]) == 0


def test_audit_json(capsys):
    assert main(["audit", "--claim", "EX2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["ring"] == "zmodel"
    assert doc[0]["status"] == "verified"


def test_audit_unknown_claim_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", "--claim", "THM9"])
    assert err.value.code == 2


def test_audit_custom_corpus(tmp_path, capsys):
    (tmp_path / "z4.json").write_text(json.dumps({"kind": "zn", "n": 4}))
    (tmp_path / "z9.json").write_text(json.dumps({"kind": "zn", "n": 9}))
    assert main(["audit", "--corpus", str(tmp_path), "--claim", "THM2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["THM2 Z_4 verified", "THM2 Z_9 verified"]


def test_audit_missing_corpus_exits_2(tmp_path, capsys):
    assert main(["audit", "--corpus", str(tmp_path / "void"), "--claim", "THM2"]) == 2


def test_zmodel_example2(capsys):
    assert main(["zmodel", "example2"]) == 0
    out = capsys.readouterr().out
    assert "Z×{0} ⊂ Z×Z_e ⊂ Z×Z" in out


def test_zmodel_ideal_literal(capsys):
    assert main(["zmodel", "ideal", "Z^2:(1,0)"]) == 0
    out = capsys.readouterr().out
    assert "is_prime: True" in out
    assert "is_maximal: False" in out
    assert "box oracle: True" in out


def test_zmodel_bad_literal_exits_2(capsys):
    assert main(["zmodel", "ideal", "Z^2:(1)"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ideals --json", "ideals --dot", "spectrum"])
@pytest.mark.parametrize("path", RING_FILES, ids=lambda p: p.name)
def test_ring_file_output_is_pinned(path, command, capsys):
    subcommand, *flags = command.split()
    assert main([subcommand, str(path), *flags]) == 0
    assert capsys.readouterr().out == PINS[path.name][command]


def test_every_ring_file_is_pinned():
    assert sorted(PINS) == [p.name for p in RING_FILES]


@pytest.mark.parametrize("raw", ["-3", "abc"])
def test_bad_endo_cap_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv(ENDO_CAP_ENV, raw)
    assert main(["audit", "--claim", "THM3"]) == 2
    err = capsys.readouterr().err
    assert f"{ENDO_CAP_ENV} must be a positive integer, got {raw!r}" in err


def test_out_of_memory_exits_2(monkeypatch, capsys, z6_file):
    def exhausted(path):
        raise MemoryError("cannot allocate the tables")

    monkeypatch.setattr("ringaudit.cli.load_ring_file", exhausted)
    assert main(["describe", z6_file]) == 2
    assert capsys.readouterr().err == "error: out of memory: cannot allocate the tables\n"
