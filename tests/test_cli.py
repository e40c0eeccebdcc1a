"""CLI surface: subcommands, formats, exit codes."""

import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringaudit import cli
from ringaudit.cli import main
from ringaudit.corpus import DOCUMENTS
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
Z2_TABLE = {"kind": "table", "order": 2, "zero": 0, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
NAMES_ERROR = "table element_names must be a list of strings"
X_SQUARED_ZERO = {"kind": "algebra", "p": 3, "basis_names": ["1", "x"], "mul": {"x*x": "0"}}


@pytest.mark.parametrize(
    "text, reason",
    [
        (json.dumps({**Z3_TABLE, "element_names": 5}), NAMES_ERROR),
        (json.dumps({**Z3_TABLE, "element_names": "xyz"}), NAMES_ERROR),
        (json.dumps({**Z3_TABLE, "element_names": ["a", "a", "b"]}),
         "element_names must be distinct, 'a' names 2 elements"),
        (json.dumps({**Z3_TABLE, "element_names": ["a", "b", 2]}), NAMES_ERROR),
        (json.dumps({"kind": "zn", "n": 6, "label": 7}), "ring document label must be a string"),
        (json.dumps({"kind": "product", "factors": [{"kind": "zn", "n": 2, "label": None}]}),
         "ring document label must be a string"),
        ('{"kind": "product", "factors": [' * 5000 + '{"kind": "zn", "n": 2}' + "]}" * 5000,
         "document is nested too deeply"),
        (json.dumps({**X_SQUARED_ZERO, "basis_names": [1, "x"]}), "algebra basis_names must be strings"),
        (json.dumps({**X_SQUARED_ZERO, "basis_names": ["1", "2x"], "mul": {"2x*2x": "0"}}),
         "algebra basis name '2x' must match [A-Za-z_][A-Za-z_0-9]*"),
        (json.dumps({**X_SQUARED_ZERO, "basis_names": ["1", "x y"], "mul": {"x y*x y": "0"}}),
         "algebra basis name 'x y' must match"),
        (json.dumps({**X_SQUARED_ZERO, "mul": {"x*x": "x-1"}}), "error: bad combination term 'x-1' in mul['x*x']\n"),
        (json.dumps({**X_SQUARED_ZERO, "mul": {"x*y": "0"}}),
         'error: bad mul key \'x*y\'; expected "<basis>*<basis>"\n'),
        # the mul keys name basis elements, so a repeated name is refused
        # before they are read, not left to make_algebra
        (json.dumps({**X_SQUARED_ZERO, "basis_names": ["x", "x"]}),
         "error: algebra basis_names must be distinct, 'x' is repeated\n"),
    ],
    ids=[
        "names-int", "names-str", "names-duplicate", "names-non-str", "label-int", "factor-label-null", "deep",
        "basis-int", "basis-2x", "basis-space", "bad-combination-term", "bad-mul-key", "basis-repeated",
    ],
)
def test_malformed_ring_file_exits_2(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["describe", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


# each document breaks a precondition that the parser leaves to the ring
# constructor that owns it; that constructor's message is the one error line
OWNED_CHECKS = {
    "zn-1": ({"kind": "zn", "n": 1}, "make_zn requires n >= 2 (the zero ring is excluded), got 1"),
    "zn-negative": ({"kind": "zn", "n": -5}, "make_zn requires n >= 2 (the zero ring is excluded), got -5"),
    "boolean-0": ({"kind": "boolean", "atoms": 0}, "make_boolean requires k >= 1 (the zero ring is excluded), got 0"),
    "product-empty": ({"kind": "product", "factors": []}, "make_product requires at least one factor, got none"),
    "algebra-no-basis": ({**X_SQUARED_ZERO, "basis_names": [], "mul": {}}, "make_algebra requires dim >= 1, got 0"),
    # refused before p, a prime that trial division would take hours over
    "algebra-no-basis-large-p": (
        {**X_SQUARED_ZERO, "p": 10**18 + 3, "basis_names": [], "mul": {}}, "make_algebra requires dim >= 1, got 0"
    ),
    **{
        f"table-order-{order}": (
            {**Z3_TABLE, "order": order}, f"ring order must be >= 2 (the zero ring is excluded), got {order}"
        )
        for order in (1, 0, -3)
    },
    "names-short": ({**Z3_TABLE, "element_names": ["a", "b"]}, "element_names must hold 3 names, got 2"),
    "names-repeated": (
        {**Z3_TABLE, "element_names": ["a", "b", "a"]}, "element_names must be distinct, 'a' names 2 elements"
    ),
    "names-spaced": (
        {**Z3_TABLE, "element_names": ["a", " a", "b"]},
        "element names must be nonempty, without leading or trailing spaces, got ' a'",
    ),
    "names-empty": (
        {**Z3_TABLE, "element_names": ["", "a", "b"]},
        "element names must be nonempty, without leading or trailing spaces, got ''",
    ),
    "add-not-commutative": (
        {**Z2_TABLE, "add": [[0, 1], [0, 0]]}, "axiom commutativity(add) violated at (0, 1)"
    ),
    "mul-not-commutative": (
        {**Z2_TABLE, "mul": [[0, 1], [0, 1]]}, "axiom commutativity(mul) violated at (0, 1)"
    ),
}


@pytest.mark.parametrize("doc, message", OWNED_CHECKS.values(), ids=OWNED_CHECKS.keys())
def test_constructor_checks_refuse_ring_files(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_describe_names_the_first_non_principal_prime(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(
        {"kind": "algebra", "p": 2, "basis_names": ["1", "x", "y"], "mul": {"x*x": "0", "x*y": "0", "y*y": "0"}}
    ))
    assert main(["describe", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "label: F2-algebra(dim=3)", "order: 8", "zero: 0", "one: 1", "is_domain: False", "is_field: False",
        "is_boolean: False", "is_pprir: False", "non-principal prime: {0,x,y,x+y}",
    ]


def test_ideals_text_and_json(z6_file, capsys):
    assert main(["ideals", z6_file]) == 0
    out = capsys.readouterr().out
    assert "4 ideals" in out
    assert main(["ideals", z6_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ring"] == "Z_6"
    assert len(doc["ideals"]) == 4
    assert all(len(e) == 2 for e in doc["containment"])


@pytest.mark.parametrize(
    "label, ideals, pairs",
    [
        ("Z_6", ["{0}", "{0,1,2,3,4,5}"], [(0, 1)]),
        ('q"u\\o\tte é ☃ \u2028', ['{"a",\\}', "{}"], [(1, 0), (0, 1)]),
        ("empty", [], []),
        ("no pairs", ["{0}"], []),
    ],
)
def test_ideals_json_writes_what_json_dumps_writes(label, ideals, pairs):
    doc = {"ring": label, "ideals": ideals, "containment": [list(p) for p in pairs]}
    assert cli._ideals_json(label, ideals, pairs) == json.dumps(doc, indent=2, ensure_ascii=False)


def test_ideals_dot(z6_file, capsys):
    assert main(["ideals", z6_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "Z_6"')


def test_ideals_json_and_dot_together_exit_2(z6_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["ideals", z6_file, "--json", "--dot"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --json" in captured.err


def test_ideals_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    doc = {
        "kind": "table",
        "order": 2,
        "zero": 0,
        "one": 1,
        "add": [[0, 1], [1, 0]],
        "mul": [[0, 0], [0, 1]],
        "label": 'q"x',
        "element_names": ['o"', "e\\"],
    }
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(doc))
    assert main(["ideals", str(path), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "q\\"x" {')
    assert 'label="{o\\",e\\\\}"' in out
    # every quote opens a DOT string that runs to its unescaped closing quote
    assert re.fullmatch(r'(?:[^"]|"(?:[^"\\]|\\.)*")*', out)
    assert len(re.findall(r'"(?:[^"\\]|\\.)*"', out)) == 3  # the graph id and two node labels


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


@pytest.mark.parametrize("ringfile, elements, ideal", [
    ("z2xz3.json", "(1,0)", "{(0,0),(1,0)}"),
    ("b2.json", "{1,2}", "{{},{1},{2},{1,2}}"),
    ("b2.json", "{1}, ,", "{{},{1}}"),
    ("z2xz3.json", "(0,1), 3", "{(0,0),(0,1),(0,2),(1,0),(1,1),(1,2)}"),
])
def test_classify_ideal_names_holding_commas(ringfile, elements, ideal, capsys):
    # product and Boolean names hold commas; a token naming no element is an index
    path = Path(__file__).resolve().parents[1] / "rings" / ringfile
    assert main(["classify-ideal", str(path), "--elements", elements]) == 0
    assert f"ideal: {ideal}\n" in capsys.readouterr().out


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


def test_quotient_json_lists_coset_members_in_index_order(z12_file, tmp_path, capsys):
    assert main(["quotient", z12_file, "--elements", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ideal"] == "{0,4,8}"
    assert doc["cosets"] == [["0", "4", "8"], ["1", "5", "9"], ["2", "6", "10"], ["3", "7", "11"]]
    # Z_6 relabelled, index i holding the residue values[i]: the coset of the
    # least index comes first, and each lists its members by index, not value
    values = [3, 0, 5, 1, 4, 2]
    at = values.index
    path = tmp_path / "z6-relabelled.json"
    path.write_text(json.dumps({
        "kind": "table",
        "order": 6,
        "zero": at(0),
        "one": at(1),
        "add": [[at((x + y) % 6) for y in values] for x in values],
        "mul": [[at(x * y % 6) for y in values] for x in values],
        "element_names": [str(v) for v in values],
    }))
    assert main(["quotient", str(path), "--elements", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 2
    assert doc["cosets"] == [["3", "5", "1"], ["0", "4", "2"]]


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


def test_audit_expect_verified_all_covers_every_claim(capsys):
    assert main(["audit", "--claim", "THM2", "--expect-verified", "all"]) == 1
    assert "expectation failed: THM2 refuted on A=F2[x,y]/(x,y)^2" in capsys.readouterr().err
    assert main(["audit", "--claim", "PROP1", "--expect-verified", "all"]) == 0


def test_audit_unknown_expected_claim_exits_2_before_any_ring(monkeypatch, capsys):
    monkeypatch.setattr(cli, "default_corpus", lambda: pytest.fail("the corpus was built"))
    with pytest.raises(SystemExit) as err:
        main(["audit", "--expect-verified", "BOGUS"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'BOGUS'" in captured.err


def test_audit_expectation_on_an_unselected_claim_exits_2_before_any_ring(monkeypatch, capsys):
    monkeypatch.setattr(cli, "default_corpus", lambda: pytest.fail("the corpus was built"))
    assert main(["audit", "--claim", "PROP1", "--expect-verified", "THM2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --expect-verified THM2 names a claim that --claim PROP1 does not run\n"


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


# === fuzzed ring documents ===

# the shipped samples and the small corpus documents that mutations start from
FUZZ_SEEDS = [json.loads(path.read_text()) for path in RING_FILES] + [
    doc for doc in DOCUMENTS if doc["kind"] != "zn" or doc["n"] <= 12
]
FUZZ_POOL = (None, True, False, 2**70, float("nan"), "", [[0, [1]], []], {"kind": "zn", "n": 3})
FUZZ_COMMANDS = (["describe"], ["ideals", "--json"], ["ideals", "--dot"], ["spectrum"])


def _nodes(doc, path=()):
    """(path, value) for every value in a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    """A seed document after one or two mutations: a value replaced by one
    from FUZZ_POOL, a key deleted, or a list entry duplicated."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        # the root comes last, as Hypothesis favours early choices
        ops = [("duplicate", path) for path, node in nodes if isinstance(node, list) and node]
        ops += [("delete", path) for path, _ in nodes if path and isinstance(_at(doc, path[:-1]), dict)]
        ops += [("replace", path) for path, _ in reversed(nodes)]
        op, path = draw(st.sampled_from(ops))
        if op == "replace":
            value = copy.deepcopy(draw(st.sampled_from(FUZZ_POOL)))
            if path:
                _at(doc, path[:-1])[path[-1]] = value
            else:
                doc = value
        elif op == "delete":
            del _at(doc, path[:-1])[path[-1]]
        else:
            entries = _at(doc, path)
            k = draw(st.integers(0, len(entries) - 1))
            entries.insert(k, copy.deepcopy(entries[k]))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_ring_documents_exit_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ring.json"
        path.write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 2), (command, doc)
