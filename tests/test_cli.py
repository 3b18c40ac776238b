from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qinl import cli
from qinl.cli import build_parser, main
from qinl.surface import MAX_NESTING, parse, elaborate

from oracles import isomorphism

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COMPANY = str(FIXTURES / "company.qinl")
BROKEN = str(FIXTURES / "company_broken.qinl")
VIOLATION = str(FIXTURES / "company_violation.qinl")
MIGRATION = str(FIXTURES / "migration.qinl")
NULLS = str(FIXTURES / "nulls.qinl")


@pytest.fixture(autouse=True)
def _json_as_json_dumps_writes_it(monkeypatch):
    """Every JSON payload a test here emits is the text that
    `json.dumps(payload, indent=2, sort_keys=True)` gives."""
    write = cli._json

    def checked(value, indent="\n"):
        text = write(value, indent)
        if indent == "\n":
            assert text == json.dumps(value, indent=2, sort_keys=True)
        return text
    monkeypatch.setattr(cli, "_json", checked)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_company_ok(capsys):
    code, out, err = run(capsys, "check", COMPANY)
    assert code == 0
    assert "result: ok" in out


def test_check_broken_exits_2_with_location(capsys):
    code, out, err = run(capsys, "check", BROKEN)
    assert code == 2
    assert "company_broken.qinl:" in err
    assert ":19:" in err  # the query line


def test_check_violation_exits_1_naming_equation_and_witness(capsys):
    code, out, err = run(capsys, "check", VIOLATION)
    assert code == 1
    assert "worksIn(x) = worksIn(manager(x))" in err
    assert "x=e1" in err


def test_check_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.qinl"
    bad.write_text("schema = {")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "bad.qinl:1:" in err


@pytest.mark.parametrize("command, args", [
    ("check", ()),
    ("eval", ()),
    ("query", ("q", "i")),
    ("migrate", ("delta", "m", "i", "--out", "out.qinl")),
    ("homs", ("i", "j")),
])
def test_non_utf8_file_exits_2_at_the_first_invalid_byte(capsys, tmp_path,
                                                         command, args):
    bad = tmp_path / "bad.qinl"
    bad.write_bytes(b"schema s = {\xff}\n")
    code, out, err = run(capsys, command, str(bad), *args)
    assert code == 2
    assert err == f"{bad}:1:13: error: invalid UTF-8 byte 0xff\n"
    assert out == ""


@pytest.mark.parametrize("command, args", [
    ("check", ()),
    ("eval", ()),
    ("query", ("q", "i")),
    ("migrate", ("delta", "m", "i", "--out", "out.qinl")),
    ("homs", ("i", "j")),
])
@pytest.mark.parametrize("text, col, char", [
    ("\u00b2", 10, "\u00b2"), ("1\u00b2", 11, "\u00b2"), ("-\u00b2", 10, "-")])
def test_non_decimal_digit_exits_2_at_its_position(capsys, tmp_path, command,
                                                   args, text, col, char):
    """Superscripts are digits to str.isdigit but not decimal: they are
    unexpected characters, not integer literals."""
    bad = tmp_path / "bad.qinl"
    bad.write_text(f"schema s = {{ entities A; }}\nexpr e = {text};\n",
                   encoding="utf-8")
    code, out, err = run(capsys, command, str(bad), *args)
    assert code == 2
    assert err == f"{bad}:2:{col}: error: 2:{col}: unexpected character {char!r}\n"
    assert out == ""


@pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1, 3000])
def test_nesting_past_the_limit_exits_2_at_the_first_token_past_it(
        capsys, tmp_path, levels):
    """f(f(...f(x)...)) with `levels` nodes: at the limit it is checked; past
    it, the diagnostic points at the first token past the limit, the node at
    level MAX_NESTING + 1 (an 'f', or the 'x' just past the limit)."""
    body = "x"
    for _ in range(levels - 1):
        body = f"f({body})"
    deep = tmp_path / "deep.qinl"
    deep.write_text(
        "schema s = {\n  entities A;\n  operations f : A -> A;\n  equations\n"
        f"    forall x: A . {body} = x;\n}}\n"
        "instance i : s = { A = { a }; f = { a -> a }; }\n")
    code, out, err = run(capsys, "check", str(deep))
    if levels <= MAX_NESTING:
        assert (code, err) == (0, "")
        return
    col = 19 + 2 * MAX_NESTING
    found = "x" if levels == MAX_NESTING + 1 else "f"
    assert code == 2
    assert err == (f"{deep}:5:{col}: error: 5:{col}: nesting deeper than "
                   f"{MAX_NESTING} levels, found {found!r}\n")
    assert out == ""


# Twice the parser's limit: a depth that only translated equations reach.
TRANSLATED_LIMIT = 2 * MAX_NESTING


def _mapped_file(tmp_path: Path, k: int, image: str) -> tuple[Path, str]:
    """A schema with forall x: A . f^k(x) = f^k(x), mapped along
    f -> (x => image)."""
    path = tmp_path / "deep.qinl"
    path.write_text(
        "schema s = { entities A; operations f : A -> A;\n"
        f"  equations forall x: A . {_f(k)} = {_f(k)}; }}\n"
        "schema t = { entities A; operations f : A -> A; }\n"
        "instance i : s = { A = { a }; f = { a -> a }; }\n"
        f"mapping m : s -> t = {{ A -> A; f -> (x => {image}); }}\n")
    return path, f"forall x: A . {_f(k)} = {_f(k)}"


def _f(n: int) -> str:
    return "f(" * n + "x" + ")" * n


def _deep_mapping(tmp_path: Path, k: int) -> tuple[Path, str]:
    """f^k(x) = f^k(x) along f -> f^5(x): the translated equation has
    5k + 1 levels."""
    return _mapped_file(tmp_path, k, _f(5))


@pytest.mark.parametrize("command, args", [
    ("check", ()),
    ("migrate", ("sigma", "m", "i", "--out", "out.qinl")),
])
def test_translated_equation_nests_past_the_parser_limit_and_is_proved(
        capsys, tmp_path, monkeypatch, command, args):
    """f^99 along f -> f^5 translates to 496 levels; the translation is
    never built, so nothing recurses through it."""
    monkeypatch.chdir(tmp_path)
    path, _ = _deep_mapping(tmp_path, 99)
    code, out, err = run(capsys, command, str(path), *args)
    assert (code, err) == (0, "")
    if command == "check":
        assert "mapping m : s -> t: preservation 1/1 proved" in out


def test_translated_equation_within_its_nesting_limit_checks(capsys, tmp_path):
    path, _ = _deep_mapping(tmp_path, (TRANSLATED_LIMIT - 1) // 5)
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert "mapping m : s -> t: preservation 1/1 proved" in out


def test_image_using_its_variable_twice_is_proved_with_a_short_trace(
        capsys, tmp_path):
    """f -> (x => (f(x), f(x)).1) doubles the translated tree at every
    level, 2^40 leaves at k = 40; the image's base normal form is f(x), so
    each side is a path of 40 levels, which the rewriting walk reads once,
    and the trace names the source equation, not the translation."""
    path, equation = _mapped_file(tmp_path, 40, "(f(x), f(x)).1")
    code, out, err = run(capsys, "check", str(path), "--format", "json")
    assert (code, err) == (0, "")
    [mapping] = [d for d in json.loads(out)["report"]["declarations"]
                 if d["kind"] == "mapping"]
    [entry] = mapping["preservation"]
    assert entry["verdict"] == "proved"
    first = entry["trace"][0]
    assert first.startswith(f"proved {equation} in 0 round(s) by rewriting both sides to ")
    assert len(first.encode("utf-8")) < 1024


def test_decimal_digits_of_other_scripts_lex_as_integers(capsys, tmp_path):
    arabic = tmp_path / "arabic.qinl"
    arabic.write_text("expr e = \u0663\u0660;\n", encoding="utf-8")
    assert run(capsys, "eval", str(arabic)) == (0, "e = 30\n", "")


def test_non_utf8_position_counts_characters_and_text_newlines(capsys, tmp_path):
    bad = tmp_path / "bad.qinl"
    bad.write_bytes("-- café\r\nab".encode("utf-8") + b" \xe9x\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err == f"{bad}:2:4: error: invalid UTF-8 byte 0xe9\n"


def test_check_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/x.qinl")
    assert code == 2


def test_query_flagship(capsys):
    code, out, err = run(capsys, "query", COMPANY, "palindromeDepts", "staff")
    assert code == 0
    assert out == "d1\n"


def test_query_extended(capsys):
    code, out, err = run(capsys, "query", COMPANY, "palindromeDepts",
                         "staffExtended")
    assert code == 0
    assert out == "d1\nd2\n"


def test_query_json_includes_witnesses(capsys):
    code, out, err = run(capsys, "query", COMPANY, "palindromeDepts", "staff",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["d1"]
    assert payload["witnesses"] == [{"bindings": {"e": "e1"}, "value": "d1"}]
    assert payload["config"]["fuel"] == 32


def test_query_over_empty_instance(capsys, tmp_path):
    text = (FIXTURES / "company.qinl").read_text() + """
instance nobody : company = {
  Emp = { };
  Dept = { };
  manager = { };
  ename = { };
  worksIn = { };
}
"""
    f = tmp_path / "empty.qinl"
    f.write_text(text)
    code, out, err = run(capsys, "query", str(f), "palindromeDepts", "nobody")
    assert code == 0
    assert out == ""


def test_query_unknown_name_exits_2(capsys):
    code, out, err = run(capsys, "query", COMPANY, "nope", "staff")
    assert code == 2


def test_eval_expression(capsys, tmp_path):
    f = tmp_path / "exprs.qinl"
    f.write_text('expr lengths = for s in {"one"} union {"three"} '
                 'return {length(s)}\n')
    code, out, err = run(capsys, "eval", str(f))
    assert code == 0
    assert out == "lengths = {3, 5}\n"


# Every kind of value `eval` prints, and the bytes it printed before sets
# were cells.
EVAL_PIN = r"""expr unit = ()
expr nested = (1, ("q\"b\\s", (true, false)), -7)
expr escapes = "a\nb\tc"
expr emptyBase = empty[String]
expr emptyProduct = empty[Int * Bool]
expr emptySet = empty[Set Int]
expr setOfSets = {{2} union {1}} union {empty[Int]}
expr duplicates = {3} union {1} union {3}
expr overEmpty = for x in empty[Int] return {(x, x)}
expr branch = if (1, "a") = (1, "a") then {-1} else {1}
"""
EVAL_PIN_TABLE = r"""unit = ()
nested = (1, (("q\"b\\s", (true, false)), -7))
escapes = "a\nb\tc"
emptyBase = {}
emptyProduct = {}
emptySet = {}
setOfSets = {{}, {1, 2}}
duplicates = {1, 3}
overEmpty = {}
branch = {-1}
"""
EVAL_PIN_JSON = r"""{
  "command": "eval",
  "config": {
    "allow_unverified": false,
    "format": "json",
    "fuel": 32,
    "sample_size": 256,
    "seed": 0
  },
  "file": FILE,
  "results": {
    "branch": "{-1}",
    "duplicates": "{1, 3}",
    "emptyBase": "{}",
    "emptyProduct": "{}",
    "emptySet": "{}",
    "escapes": "\"a\\nb\\tc\"",
    "nested": "(1, ((\"q\\\"b\\\\s\", (true, false)), -7))",
    "overEmpty": "{}",
    "setOfSets": "{{}, {1, 2}}",
    "unit": "()"
  },
  "status": "ok"
}
"""


def test_eval_prints_pinned_bytes(capsys, tmp_path):
    f = tmp_path / "pin.qinl"
    f.write_text(EVAL_PIN)
    assert run(capsys, "eval", str(f)) == (0, EVAL_PIN_TABLE, "")
    want = EVAL_PIN_JSON.replace("FILE", json.dumps(str(f)))
    assert run(capsys, "eval", str(f), "--format", "json") == (0, want, "")


@pytest.mark.parametrize("text", [
    "if 1 then {1} else {2}",
    "for x in 1 return {x}",
    '{1} union {"a"}',
    "1 = true",
])
def test_ill_typed_expression_is_reported_as_its_text(capsys, tmp_path, text):
    f = tmp_path / "bad.qinl"
    f.write_text(f"expr e = {text}\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 2
    assert err.startswith(f"{f}:1:1: error: expr 'e': expected ")
    assert err.endswith(f" at {text}\n")


def test_builtin_carrier_is_no_entity_type(capsys, tmp_path):
    f = tmp_path / "carrier.qinl"
    f.write_text(
        'schema S = { entities E, String; operations f : E -> String;\n'
        '  equations forall x: E . f(x) = "t"; }\n'
        'instance I : S = { E = { a }; String = { t }; f = { a -> t }; }\n')
    code, out, err = run(capsys, "check", str(f))
    assert code == 2
    assert (f"{f}:1:1: error: schema 'S': entity type 'String' is a builtin "
            "attribute type\n") in err


def test_migrate_delta_identity_bytes(capsys, tmp_path):
    out1 = tmp_path / "a.qinl"
    out2 = tmp_path / "b.qinl"
    code, _, _ = run(capsys, "migrate", MIGRATION, "delta", "orgId",
                     "orgData", "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, "migrate", MIGRATION, "delta", "orgId",
                     "orgData", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the written file elaborates cleanly alongside its schema
    elab = elaborate(parse(
        (FIXTURES / "migration.qinl").read_text() + "\n"
        + out1.read_text()))
    assert not elab.errors()


def test_migrate_sigma_identity_isomorphic(capsys, tmp_path):
    out = tmp_path / "s.qinl"
    code, _, _ = run(capsys, "migrate", MIGRATION, "sigma", "orgId",
                     "orgData", "--out", str(out))
    assert code == 0
    combined = (FIXTURES / "migration.qinl").read_text() + "\n" + out.read_text()
    elab = elaborate(parse(combined))
    assert isomorphism(elab.schemas["org"], elab.instances["orgData_sigma"],
                       elab.instances["orgData"]) is not None


# Bytes printed by the unindexed e-graph: the chase behind sigma and pi must
# keep producing them.
MIGRATE_GOLDEN = {
    ("sigma", "toPeople", "orgData"): (
        "orgData_sigma : people", 5,
        "instance orgData_sigma : people = {\n"
        "  Person = { e1, e2, e3 };\n"
        "  Unit = { d1, d2 };\n"
        '  uname = { d1 -> "sales", d2 -> "ops" };\n'
        "  unitOf = { e1 -> d1, e2 -> d1, e3 -> d2 };\n"
        "}\n"),
    ("pi", "toPeople", "orgData"): (
        "orgData_pi : people", 5,
        "instance orgData_pi : people = {\n"
        '  Person = { "(x.unitOf:Dept=d1, x:Emp=e1)", '
        '"(x.unitOf:Dept=d1, x:Emp=e2)", "(x.unitOf:Dept=d2, x:Emp=e3)" };\n'
        '  Unit = { "(x:Dept=d1)", "(x:Dept=d2)" };\n'
        '  uname = { "(x:Dept=d1)" -> "sales", "(x:Dept=d2)" -> "ops" };\n'
        '  unitOf = { "(x.unitOf:Dept=d1, x:Emp=e1)" -> "(x:Dept=d1)", '
        '"(x.unitOf:Dept=d1, x:Emp=e2)" -> "(x:Dept=d1)", '
        '"(x.unitOf:Dept=d2, x:Emp=e3)" -> "(x:Dept=d2)" };\n'
        "}\n"),
    ("pi", "collapse", "ab"): (
        "ab_pi : blob", 6,
        "instance ab_pi : blob = {\n"
        '  Node = { "(x:A=a1, x:B=b1)", "(x:A=a1, x:B=b2)", "(x:A=a1, x:B=b3)", '
        '"(x:A=a2, x:B=b1)", "(x:A=a2, x:B=b2)", "(x:A=a2, x:B=b3)" };\n'
        "}\n"),
}


@pytest.mark.parametrize("direction, mapping, instance", sorted(MIGRATE_GOLDEN))
def test_migrate_sigma_and_pi_print_golden_bytes(capsys, tmp_path, direction,
                                                 mapping, instance):
    name, rows, text = MIGRATE_GOLDEN[direction, mapping, instance]
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", MIGRATION, direction, mapping,
                               instance, "--out", str(out))
    assert (code, stdout, stderr) == (0, f"wrote {name} to {out} ({rows} rows)\n", "")
    assert out.read_text() == text


@pytest.mark.parametrize("out, reason", [
    ("missing/o.qinl", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_migrate_to_an_unwritable_out_exits_2(capsys, tmp_path, out, reason):
    out = str(tmp_path / out)
    code, stdout, stderr = run(capsys, "migrate", MIGRATION, "sigma",
                               "toPeople", "orgData", "--out", out)
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"{out}: error: ") and reason in stderr
    assert stderr.count("\n") == 1


def test_migrate_nonsaturating_pi_exits_1(capsys, tmp_path):
    text = """
schema S = { entities A; }
schema T = { entities C; operations spin : C -> C; }
instance I : S = { A = { a1 }; }
mapping F : S -> T = { A -> C; }
"""
    f = tmp_path / "loop.qinl"
    f.write_text(text)
    code, out, err = run(capsys, "migrate", str(f), "pi", "F", "I",
                         "--out", str(tmp_path / "never.qinl"), "--fuel", "4")
    assert code == 1
    assert "did not saturate" in err


def test_migrate_pi_keeps_a_row_whose_open_attribute_is_a_value_of_a_null(
        capsys, tmp_path):
    """m(x) = length(w(x)) in the target and nothing goes to m: b's m is
    length(?ub), which instance text states, so b is kept and the output
    appended to its source file checks."""
    text = """
schema S = { entities A; attributes String, Int;
  operations length : String -> Int, u : A -> String; }
schema T = { entities U; attributes String, Int;
  operations length : String -> Int, w : U -> String, m : U -> Int;
  equations forall x: U . m(x) = length(w(x)); }
instance I : S = { A = { a, b }; u = { a -> "pq", b -> ?ub }; }
mapping F : S -> T = { A -> U; u -> (x => w(x)); }
"""
    f = tmp_path / "open.qinl"
    f.write_text(text)
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", str(f), "pi", "F", "I",
                               "--out", str(out))
    assert (code, stdout, stderr) == (0, f"wrote I_pi : T to {out} (2 rows)\n", "")
    assert out.read_text() == (
        'instance I_pi : T = {\n  U = { "(x:A=a)", "(x:A=b)" };\n'
        '  m = { "(x:A=a)" -> 2, "(x:A=b)" -> length(?ub) };\n'
        '  w = { "(x:A=a)" -> "pq", "(x:A=b)" -> ?ub };\n}\n')
    both = tmp_path / "both.qinl"
    both.write_text(text + out.read_text())
    code, stdout, stderr = run(capsys, "check", str(both))
    assert (code, stderr) == (0, "")
    assert "instance I_pi : T: 2 rows; 1 satisfied" in stdout


def test_migrate_delta_writes_builtin_applications_of_nulls(capsys, tmp_path):
    """k -> length(w(x)) over a row with w = ?q gives k = length(?q), which
    reads back: the output appended to its source file checks."""
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", NULLS, "delta", "lengths",
                               "someWords", "--out", str(out))
    assert (code, stderr) == (0, "")
    assert out.read_text() == (
        "instance someWords_delta : counts = {\n  A = { u1, u2 };\n"
        "  k = { u1 -> length(?q), u2 -> 3 };\n}\n")
    both = tmp_path / "both.qinl"
    both.write_text(Path(NULLS).read_text() + "\n" + out.read_text())
    code, stdout, stderr = run(capsys, "check", str(both))
    assert (code, stderr) == (0, "")
    assert "instance someWords_delta : counts: 2 rows" in stdout


def test_migrate_delta_fails_on_a_builtin_its_source_does_not_declare(
        capsys, tmp_path):
    """Along `lengthsBare` the source `countsBare` declares no `length`, so
    `length(?q)` is no cell of it: exit 1 naming the op, row and builtin,
    rather than an output that does not read back."""
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", NULLS, "delta", "lengthsBare",
                               "someWords", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == (f"{NULLS}: failure: the source schema cannot state "
                      f"k(u1) = length(?q): 'length' is not a builtin "
                      f"operation of the schema\n")
    assert not out.exists()


_UNSTATED_DELTA = """\
schema S = { entities E; attributes String; operations name : E -> String; }
schema T = { entities F; attributes String; operations tname : F -> String, reverse : String -> String; }
mapping m : S -> T = { E -> F; name -> (x => reverse(tname(x))); }
instance j : T = { F = { a }; tname = { a -> ?0 }; }
migrate k = delta m j
"""


def test_a_migrate_declaration_fails_as_qinl_migrate_does(capsys, tmp_path):
    """A `migrate` declaration whose delta the source schema cannot state
    is a failure (exit 1) located at the declaration, as `qinl migrate`
    reports the same migration; it used to be an error (exit 2)."""
    path = tmp_path / "unstated.qinl"
    path.write_text(_UNSTATED_DELTA)
    problem = ("the source schema cannot state name(a) = reverse(?0): "
               "'reverse' is not a builtin operation of the schema")
    code, stdout, stderr = run(capsys, "check", str(path))
    assert (code, stderr) == (1, f"{path}:5:1: failure: migrate 'k': {problem}\n")
    assert stdout.endswith("result: failures\n")
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", str(path), "delta", "m", "j",
                               "--out", str(out))
    assert (code, stdout, stderr) == (1, "", f"{path}: failure: {problem}\n")
    assert not out.exists()


def test_a_declaration_that_uses_a_failed_migration_fails(capsys, tmp_path):
    """A `migrate` declaration of an instance whose migration failed fails
    too (exit 1), naming that migration, and so does one that uses it in
    turn; the name is not reported as an unknown instance (exit 2)."""
    path = tmp_path / "uses_failed.qinl"
    path.write_text(_UNSTATED_DELTA + "migrate k2 = sigma m k\n"
                    "migrate k3 = delta m k2\n")
    code, stdout, stderr = run(capsys, "check", str(path))
    assert code == 1
    assert stderr.splitlines()[1:] == [
        f"{path}:6:1: failure: migrate 'k2': migration 'k' failed",
        f"{path}:7:1: failure: migrate 'k3': migration 'k2' failed"]
    assert stdout.endswith("result: failures\n")


def test_a_command_that_names_a_failed_migration_fails(capsys, tmp_path):
    """A command argument that names the result of a failed `migrate`
    declaration fails (exit 1) naming that migration, and `migrate` writes
    no output; a name declared nowhere is still an error (exit 2)."""
    path = tmp_path / "unstated.qinl"
    path.write_text(_UNSTATED_DELTA)
    failed = (1, "", f"{path}: failure: migration 'k' failed\n")
    assert run(capsys, "homs", str(path), "k", "k") == failed
    out = tmp_path / "o.qinl"
    assert run(capsys, "migrate", str(path), "sigma", "m", "k",
               "--out", str(out)) == failed
    assert not out.exists()
    assert run(capsys, "homs", str(path), "zz", "j") == (
        2, "", f"{path}: error: unknown instance 'zz'\n")


@pytest.mark.parametrize("again", ["migrate k = delta m j",
                                   "instance k : S = { E = { e }; name = { e -> \"w\" }; }"])
def test_a_failed_migration_keeps_its_name(capsys, tmp_path, again):
    """The name of a failed `migrate` declaration is taken: declaring it
    again, by a second `migrate` or by an `instance`, is malformed (exit 2),
    as it is after a migration that succeeds."""
    path = tmp_path / "dup.qinl"
    path.write_text(_UNSTATED_DELTA + again + "\n")
    code, _, stderr = run(capsys, "check", str(path))
    assert code == 2
    assert f"{path}:6:1: error: duplicate instance name 'k'" in stderr.splitlines()


_MISTYPED_BUILTIN = """\
schema S = {
  entities E;
  attributes String, Int;
  operations n : E -> Int, s : E -> String, length : Int -> String;
  equations forall x: E . s(x) = length(n(x));
}
instance i : S = { E = { a }; n = { a -> 3 }; s = { a -> "3" }; }
mapping m : S -> S = { E -> E; n -> (x => n(x)); s -> (x => s(x)); }
"""


@pytest.mark.parametrize("command, args", [
    ("check", ()), ("migrate", ("sigma", "m", "i"))])
def test_a_builtin_declared_at_another_type_exits_2(capsys, tmp_path, command,
                                                    args):
    """`length` is registered String -> Int, so a schema may not declare it
    Int -> String: exit 2 at the schema, where checking the instance or
    chasing sigma's model applied `len` to an integer and ended in a
    TypeError."""
    path = tmp_path / "mistyped.qinl"
    path.write_text(_MISTYPED_BUILTIN)
    out = tmp_path / "o.qinl"
    extra = ("--out", str(out)) if command == "migrate" else ()
    code, stdout, stderr = run(capsys, command, str(path), *args, *extra)
    assert code == 2
    assert stderr.startswith(
        f"{path}:1:1: error: schema 'S': builtin operation 'length' is "
        f"declared Int -> String, but its registered type is String -> Int\n")
    assert "Traceback" not in stdout + stderr
    assert not out.exists()


_BOOLS = """\
schema S = {
  entities E, D;
  attributes Bool, Int;
  operations
    active : E -> Bool,
    size : E -> Int,
    dept : E -> D,
    open : D -> Bool;
  equations
    forall b: Bool . b = b;
    forall x: E . open(dept(x)) = true;
}
schema T = {
  entities F, G;
  attributes Bool, Int;
  operations
    on : F -> Bool,
    n : F -> Int,
    at : F -> G,
    ok : G -> Bool;
  equations
    forall y: F . ok(at(y)) = true;
}
mapping m : S -> T = {
  E -> F;
  D -> G;
  active -> (x => on(x));
  size -> (x => n(x));
  dept -> (x => at(x));
  open -> (x => ok(x));
}
instance i : S = {
  E = { a, b };
  D = { d };
  active = { a -> true, b -> ?0 };
  size = { a -> 1, b -> 2 };
  dept = { a -> d, b -> d };
  open = { d -> true };
}
instance j : T = {
  F = { p };
  G = { g };
  on = { p -> false };
  n = { p -> 3 };
  at = { p -> g };
  ok = { g -> true };
}
query q : S = for x: E where active(x) = true return size(x)
"""

_BOOL_MIGRATIONS = {
    ("delta", "j"): (
        "j_delta : S", 2,
        "instance j_delta : S = {\n"
        "  D = { g };\n"
        "  E = { p };\n"
        "  active = { p -> false };\n"
        "  dept = { p -> g };\n"
        "  open = { g -> true };\n"
        "  size = { p -> 3 };\n"
        "}\n"),
    ("sigma", "i"): (
        "i_sigma : T", 3,
        "instance i_sigma : T = {\n"
        "  F = { a, b };\n"
        "  G = { d };\n"
        "  at = { a -> d, b -> d };\n"
        "  n = { a -> 1, b -> 2 };\n"
        "  ok = { d -> true };\n"
        "  on = { a -> true, b -> ?0 };\n"
        "}\n"),
    ("pi", "i"): (
        "i_pi : T", 3,
        "instance i_pi : T = {\n"
        '  F = { "(x.at:D=d, x:E=a)", "(x.at:D=d, x:E=b)" };\n'
        '  G = { "(x:D=d)" };\n'
        '  at = { "(x.at:D=d, x:E=a)" -> "(x:D=d)", '
        '"(x.at:D=d, x:E=b)" -> "(x:D=d)" };\n'
        '  n = { "(x.at:D=d, x:E=a)" -> 1, "(x.at:D=d, x:E=b)" -> 2 };\n'
        '  ok = { "(x:D=d)" -> true };\n'
        '  on = { "(x.at:D=d, x:E=a)" -> true, "(x.at:D=d, x:E=b)" -> ?0 };\n'
        "}\n"),
}


def test_bool_attributes_run_through_every_command(capsys, tmp_path):
    """`Bool` is an attribute type like `Int`: declared under `attributes`,
    with `true`/`false` cells and literals, it checks, answers a query,
    migrates in all three directions to files that read back, and maps
    its nulls in homomorphisms."""
    path = tmp_path / "bools.qinl"
    path.write_text(_BOOLS)
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert "instance i : S: 3 rows; 1 satisfied, 1 sampled-only\n" in out
    assert run(capsys, "query", str(path), "q", "i") == (0, "1\n", "")
    outputs = [_BOOLS]
    for (direction, instance), (name, rows, text) in _BOOL_MIGRATIONS.items():
        out_path = tmp_path / f"{direction}.qinl"
        assert run(capsys, "migrate", str(path), direction, "m", instance,
                   "--out", str(out_path)) == (
            0, f"wrote {name} to {out_path} ({rows} rows)\n", "")
        assert out_path.read_text() == text
        outputs.append(text)
    path.write_text("".join(outputs))
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    for name in ("j_delta : S", "i_sigma : T", "i_pi : T"):
        assert f"instance {name}: " in out
    assert run(capsys, "homs", str(path), "i", "i", "--list") == (
        0, "1 homomorphism(s) from i to i\n"
           "  D: d->d; E: a->a, b->b; ?0 -> ?0\n", "")


def test_a_bool_equation_is_sampled_over_both_booleans(capsys, tmp_path):
    """The instance holds only `true`, so the witness `false` comes from
    the sample space of `Bool`."""
    path = tmp_path / "bools.qinl"
    path.write_text("schema S = { entities E; attributes Bool;\n"
                    "  operations on : E -> Bool;\n"
                    "  equations forall b: Bool . b = true; }\n"
                    "instance i : S = { E = { a }; on = { a -> true }; }\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert err == (f"{path}:4:1: failure: instance 'i' violates "
                   f"forall b: Bool . b = true at b=false\n")


@pytest.mark.parametrize("text, loc, message", [
    ("schema S = { entities E; operations f : E -> E;\n"
     "  equations forall s: Foo . s = s; }\n"
     "instance i : S = { E = { a }; f = { a -> a }; }\n",
     "2:13", "equation 'forall s: Foo . s = s': unknown base type 'Foo'"),
    ("schema S = { entities E; operations f : E -> String; }\n"
     "instance i : S = { E = { a }; f = { a -> \"x\" }; }\n",
     "1:1", "schema 'S': operation 'f': unknown base type 'String'"),
    ("schema S = { entities E; operations f : E -> Bool; }\n",
     "1:1", "schema 'S': operation 'f': unknown base type 'Bool'"),
    ("schema S = { entities E;\n  equations forall b: Bool . b = b; }\n",
     "2:13", "equation 'forall b: Bool . b = b': unknown base type 'Bool'"),
], ids=["binder", "operation", "bool-operation", "bool-binder"])
def test_a_type_the_schema_does_not_declare_exits_2(capsys, tmp_path, text,
                                                    loc, message):
    """Every base type an operation or a binder names must be declared; it
    is reported at the schema or at the equation, never as a traceback."""
    path = tmp_path / "undeclared.qinl"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith(f"{path}:{loc}: error: {message}\n")
    assert "Traceback" not in out + err


_SCHEMAS = """\
schema S = {
  entities E;
  attributes String, Int;
  operations f : E -> E, name : E -> String, length : String -> Int;
}
schema T = {
  entities F;
  attributes String, Int;
  operations g : F -> F, label : F -> String;
}
schema U = { entities E; attributes Int; operations size : E -> Int; }
schema V = { entities F; attributes String; }
instance i : S = { E = { a }; f = { a -> a }; name = { a -> "n" }; }
"""


@pytest.mark.parametrize("text, args, loc, message", [
    ("schema D = { entities E; operations f : E -> E, f : E -> E; }",
     (), "14:49", "duplicate operation 'f'"),
    ("schema D = { entities E; attributes String;\n"
     "  operations f : E -> E, s : E -> String;\n"
     "  equations forall x: E . f(x) = s(x); }",
     (), "16:13",
     "equation 'forall x: E . f(x) = s(x)': sides have different types: "
     "E vs String"),
    ("instance k : S = { E = { a }; E = { b }; }",
     (), "14:31", "duplicate item 'E'"),
    ("instance k : S = { E = { a }; length = { a -> 1 }; }",
     (), "14:31",
     "operation 'length' is builtin; its semantics are registered, not "
     "tabulated"),
    ("instance k : S = { E = { a }; zz = { a }; }",
     (), "14:31", "'zz' is neither an entity type nor an operation of schema 'S'"),
    ("mapping m : S -> S = { E -> E; E -> E; }",
     (), "14:32", "duplicate type image for 'E'"),
    ("mapping m : S -> S = { f -> (x => f(x)); f -> (x => x); }",
     (), "14:42", "duplicate operation image for 'f'"),
    ("mapping m : S -> S = { f -> (x => f(x)); name -> (x => name(x)); }",
     (), "14:1", "mapping 'm': no image for entity type 'E'"),
    ("mapping m : S -> S = { E -> String; f -> (x => f(x)); "
     "name -> (x => name(x)); }",
     (), "14:1", "mapping 'm': 'E' maps to 'String', not a target entity type"),
    ("mapping m : S -> S = { E -> E; Int -> Int; f -> (x => f(x)); "
     "name -> (x => name(x)); }",
     (), "14:1", "mapping 'm': type map mentions non-entity type 'Int'"),
    ("mapping m : U -> V = { E -> F; size -> (x => x); }",
     (), "14:1",
     "mapping 'm': attribute type 'Int' is fixed but absent from the target"),
    ("mapping m : S -> S = { E -> E; name -> (x => name(x)); }",
     (), "14:1", "mapping 'm': no image for operation 'f'"),
    ("mapping m : S -> S = { E -> E; f -> (x => f(x)); "
     "name -> (x => name(x)); length -> (x => length(x)); }",
     (), "14:1",
     "mapping 'm': operation map mentions 'length', which is not a source "
     "operation with entity domain"),
    ("mapping m : S -> T = { E -> F; f -> (x => g(x)); "
     "name -> (x => label(x)); }",
     (), "14:1",
     "mapping 'm': builtin operation 'length' is not declared identically in "
     "the target"),
    ("mapping m : S -> S = { E -> E; f -> (x => f(y)); "
     "name -> (x => name(x)); }",
     (), "14:1",
     "mapping 'm': image of 'f' does not typecheck: unbound variable 'y'"),
    ("mapping m : S -> S = { E -> E; f -> (x => f(x)); "
     "name -> (x => length(name(x))); }",
     (), "14:1", "mapping 'm': image of 'name' has type Int, expected String"),
    ('expr e = length(1)',
     (), "14:1", "expr 'e': expected String, found Int at length(1)"),
    ("query q : U = for x: E return size(x)",
     ("query", "q", "i"), None,
     "query 'q' is over 'U' but instance 'i' is on 'S'"),
], ids=["duplicate-operation", "ill-typed-equation", "duplicate-item",
        "tabulated-builtin", "item-naming-nothing", "duplicate-type-image",
        "duplicate-operation-image", "no-entity-image", "not-a-target-entity",
        "non-entity-type-image", "attribute-type-absent", "no-operation-image",
        "not-a-source-operation", "builtin-not-identical",
        "image-does-not-typecheck", "image-of-another-type", "ill-typed-expr",
        "query-across-schemas"])
def test_elaboration_diagnostics_exit_2_at_their_place(capsys, tmp_path, text,
                                                       args, loc, message):
    path = tmp_path / "bad.qinl"
    path.write_text(_SCHEMAS + text + "\n")
    command, *rest = args or ("check",)
    code, out, err = run(capsys, command, str(path), *rest)
    assert code == 2
    place = f"{path}:{loc}" if loc else f"{path}"
    assert err.startswith(f"{place}: error: {message}\n")


_SYMBOLIC = """\
schema S = {
  entities A;
  attributes String, Int;
  operations
    w : A -> String,
    k : A -> Int,
    length : String -> Int;
  equations
    forall x: A . k(x) = length(w(x));
}
schema T = {
  entities B;
  attributes String, Int;
  operations
    v : B -> String,
    n : B -> Int,
    length : String -> Int;
  equations
    forall y: B . n(y) = length(v(y));
}
mapping m : S -> T = {
  A -> B;
  w -> (x => v(x));
  k -> (x => n(x));
}
instance I : S = {
  A = { a };
  w = { a -> ?0 };
  k = { a -> length(?0) };
}
"""


@pytest.mark.parametrize("direction, text", [
    ("sigma", "instance I_sigma : T = {\n"
              "  B = { a };\n"
              "  n = { a -> length(?0) };\n"
              "  v = { a -> ?0 };\n"
              "}\n"),
    ("pi", "instance I_pi : T = {\n"
           '  B = { "(x:A=a)" };\n'
           '  n = { "(x:A=a)" -> length(?0) };\n'
           '  v = { "(x:A=a)" -> ?0 };\n'
           "}\n"),
])
def test_sigma_and_pi_keep_a_symbolic_cell_along_a_renaming(capsys, tmp_path,
                                                            direction, text):
    path = tmp_path / "symbolic.qinl"
    path.write_text(_SYMBOLIC)
    out = tmp_path / "o.qinl"
    assert run(capsys, "migrate", str(path), direction, "m", "I",
               "--out", str(out)) == (
        0, f"wrote I_{direction} : T to {out} (1 rows)\n", "")
    assert out.read_text() == text


def test_homs_list_the_null_part_of_a_symbolic_source(capsys, tmp_path):
    path = tmp_path / "symbolic.qinl"
    path.write_text(_SYMBOLIC)
    assert run(capsys, "homs", str(path), "I", "I", "--list") == (
        0, "1 homomorphism(s) from I to I\n  A: a->a; ?0 -> ?0\n", "")


def test_homs_match_symbolic_cells_by_computing_or_structurally(capsys):
    """`length(?p)` of `one` matches 3 once `?p` goes to "abc", 2 once it
    goes to "xy", and `length(?q)` once it goes to `?q`; no row of `one`
    holds "abc", so nothing goes back."""
    assert run(capsys, "homs", NULLS, "one", "two", "--list") == (
        0, "3 homomorphism(s) from one to two\n"
           "  A: a1->b1, a2->b3; ?p -> abc\n"
           "  A: a1->b2, a2->b3; ?p -> ?q\n"
           "  A: a1->b3, a2->b3; ?p -> xy\n", "")
    assert run(capsys, "homs", NULLS, "two", "one", "--list") == (
        0, "0 homomorphism(s) from two to one\n", "")


def test_migrate_pi_writes_one_fresh_null_per_open_class(capsys, tmp_path):
    """w(x) = w2(x) in `twins` and nothing goes to either: each row holds
    one fresh null in both cells, and the output reads back and checks."""
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", NULLS, "pi", "toTwins",
                               "someDrafts", "--out", str(out))
    assert (code, stderr) == (0, "")
    assert out.read_text() == (
        'instance someDrafts_pi : twins = {\n  U = { "(x:A=a)", "(x:A=b)" };\n'
        '  u2 = { "(x:A=a)" -> ?u, "(x:A=b)" -> "abba" };\n'
        '  w = { "(x:A=a)" -> ?0, "(x:A=b)" -> ?1 };\n'
        '  w2 = { "(x:A=a)" -> ?0, "(x:A=b)" -> ?1 };\n}\n')
    both = tmp_path / "both.qinl"
    both.write_text(Path(NULLS).read_text() + "\n" + out.read_text())
    code, stdout, stderr = run(capsys, "check", str(both))
    assert (code, stderr) == (0, "")
    assert "instance someDrafts_pi : twins: 2 rows; 1 satisfied" in stdout


def test_migrate_pi_drops_a_row_whose_null_the_target_constrains(capsys, tmp_path):
    """w(x) = reverse(w(x)) puts ?u and reverse(?u) in one class, which the
    target does not prove equal, so row a goes and row b ("abba") stays."""
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", NULLS, "pi", "toPalindromes",
                               "someDrafts", "--out", str(out))
    assert (code, stderr) == (0, "")
    assert out.read_text() == (
        'instance someDrafts_pi : palindromes = {\n  U = { "(x:A=b)" };\n'
        '  w = { "(x:A=b)" -> "abba" };\n}\n')
    both = tmp_path / "both.qinl"
    both.write_text(Path(NULLS).read_text() + "\n" + out.read_text())
    assert run(capsys, "check", str(both))[0] == 0


def test_migrate_sigma_fails_on_a_null_no_cell_can_state(capsys, tmp_path):
    """sigma along the same mapping would need reverse(?0) = ?0 of a's
    null; the parent wrote w = ?0, which `check` then rejected."""
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", NULLS, "sigma", "toPalindromes",
                               "someDrafts", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == (f"{NULLS}: failure: the free model ties a labelled null "
                      f"to a value no cell can state: reverse(?0) = ?0\n")
    assert not out.exists()


_FORCED_EQUAL = """schema S = {
  entities A;
  attributes String;
  operations u : A -> String;
}
schema T = {
  entities C;
  attributes String;
  operations name : C -> String;
  equations forall x : C . name(x) = "a";
}
instance I : S = { A = { a1 }; u = { a1 -> "b" }; }
"""


@pytest.mark.parametrize("image", ['"a"', "name(x)"], ids=["seed", "cell"])
def test_migrate_sigma_fails_on_constants_forced_equal(capsys, tmp_path, image):
    """The seed u(a1) = "b" meets the image "a" outright, or through the
    target equation in the cell name(a1).  The parent wrote the first as
    name = { a1 -> ?0 } with exit 0, and exited 2 on the second."""
    path = tmp_path / "forced.qinl"
    path.write_text(_FORCED_EQUAL
                    + f"mapping M : S -> T = {{ A -> C; u -> (x => {image}); }}\n")
    out = tmp_path / "o.qinl"
    code, stdout, stderr = run(capsys, "migrate", str(path), "sigma", "M", "I",
                               "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == (f"{path}: failure: theory forces distinct constants "
                      f'equal: "a", "b"\n')
    assert not out.exists()
    path.write_text(path.read_text() + "migrate J = sigma M I\n")
    code, stdout, stderr = run(capsys, "check", str(path))
    assert code == 1
    assert (f"{path}:14:1: failure: migrate 'J': theory forces distinct "
            f'constants equal: "a", "b"') in stderr


@pytest.mark.parametrize("cell, col, message", [
    ("reverse(?q)", 49, "'reverse' is not a builtin operation of the schema"),
    ("k(?q)", 49, "'k' is not a builtin operation of the schema"),
    ("length(length(?q))", 56, "'length' gives Int, not String"),
    ("length(3)", 56, "the argument of 'length' must be a null"),
    ('length("ab")', 56, "the argument of 'length' must be a null"),
    ("length(u1)", 56, "the argument of 'length' must be a null"),
], ids=["undeclared", "not-builtin", "wrong-type", "int-argument",
        "string-argument", "row-argument"])
def test_malformed_builtin_application_cell_exits_2_at_its_position(
        capsys, tmp_path, cell, col, message):
    bad = tmp_path / "bad.qinl"
    row = f"instance b : counts = {{ A = {{ u1 }}; k = {{ u1 -> {cell} }}; }}\n"
    bad.write_text(Path(NULLS).read_text() + row)
    line = Path(NULLS).read_text().count("\n") + 1
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert f"bad.qinl:{line}:{col}: error: {message}" in err


_TWO_VALUES = """schema S = {
  entities E;
  attributes Int;
  operations k : E -> Int, f : E -> E;
}
instance I : S = {
  E = { a, b };
"""


@pytest.mark.parametrize("table, col, message", [
    ("k = { a -> 1, a -> 2, b -> 3 }; f = { a -> a, b -> b };", 17,
     "table 'k' gives row 'a' two values: 1 and 2"),
    ("k = { a -> 1, b -> 3 }; f = { a -> a, a -> b, b -> b };", 41,
     "table 'f' gives row 'a' two values: a and b"),
], ids=["attribute", "entity"])
def test_a_row_given_two_values_exits_2_at_the_second(capsys, tmp_path, table,
                                                       col, message):
    bad = tmp_path / "bad.qinl"
    bad.write_text(_TWO_VALUES + f"  {table}\n}}\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert f"bad.qinl:8:{col}: error: {message}" in err


def test_a_repeated_entry_is_accepted(capsys, tmp_path):
    good = tmp_path / "good.qinl"
    good.write_text(_TWO_VALUES + '  k = { a -> 1, a -> 01, b -> 3 };\n'
                    '  f = { a -> a, "a" -> "a", b -> b, b -> b };\n}\n')
    code, out, err = run(capsys, "check", str(good))
    assert code == 0, err


@pytest.mark.parametrize("text, message", [
    ('expr e = "open', "1:10: error: 1:10: unterminated string literal"),
    ('expr e = "\\q"', "1:10: error: 1:10: bad escape '\\q'"),
    ("expr e = ?", "1:10: error: 1:10: lone '?'"),
    ("expr e = \u00b2", "1:10: error: 1:10: unexpected character '\u00b2'"),
], ids=["unterminated", "bad-escape", "lone-null-mark", "superscript"])
def test_malformed_token_exits_2_at_its_position(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.qinl"
    bad.write_text(text + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert f"bad.qinl:{message}" in err


def test_migrate_unverified_requires_flag(capsys, tmp_path):
    text = """
schema S = {
  entities A;
  operations m : A -> A;
  equations forall x: A . m(x) = m(m(x));
}
schema T = { entities A; operations m : A -> A; }
instance I : S = { A = { a1 }; m = { a1 -> a1 }; }
mapping F : S -> T = { A -> A; m -> (x => m(x)); }
"""
    f = tmp_path / "unverified.qinl"
    f.write_text(text)
    out_path = str(tmp_path / "o.qinl")
    code, _, err = run(capsys, "migrate", str(f), "sigma", "F", "I",
                       "--out", out_path)
    assert code == 1
    assert "preservation not proved" in err
    code, _, _ = run(capsys, "migrate", str(f), "sigma", "F", "I",
                     "--out", out_path, "--allow-unverified")
    assert code == 0


def test_homs_count_and_listing(capsys):
    code, out, _ = run(capsys, "homs", MIGRATION, "twoNodes", "threeNodes")
    assert code == 0
    assert "9 homomorphism(s)" in out
    code, out, _ = run(capsys, "homs", MIGRATION, "twoNodes", "threeNodes",
                       "--list")
    assert out.count("\n") == 10  # summary line plus nine homomorphisms


@pytest.mark.parametrize("args", [("twoNodes", "threeNodes"), ("threeNodes", "twoNodes"),
                                  ("twoNodes", "twoNodes")])
def test_homs_count_is_the_same_with_and_without_the_listing(capsys, args):
    """The listing is rendered only under --list; the count does not
    depend on it, in either format, and the listing has one line per
    homomorphism."""
    code, out, _ = run(capsys, "homs", MIGRATION, *args)
    listed_code, listed, _ = run(capsys, "homs", MIGRATION, *args, "--list")
    assert code == listed_code == 0
    assert listed.splitlines()[0] == out.strip()
    count = int(out.split()[0])
    assert len(listed.splitlines()) == 1 + count
    code, out, _ = run(capsys, "homs", MIGRATION, *args, "--format", "json")
    listed_code, listed, _ = run(capsys, "homs", MIGRATION, *args, "--list",
                                 "--format", "json")
    plain, full = json.loads(out), json.loads(listed)
    assert code == listed_code == 0
    assert plain["count"] == full["count"] == count
    assert "homomorphisms" not in plain
    assert len(full["homomorphisms"]) == count


def test_homs_identity_nonempty(capsys):
    code, out, _ = run(capsys, "homs", COMPANY, "staff", "staff")
    assert code == 0
    count = int(out.split()[0])
    assert count >= 1


def test_homs_oversized_exits_1(capsys, tmp_path):
    """Ten rows whose key points at one hub are one component, whose search
    passes 100,000 search nodes: exit 1 with or without --list."""
    rows = ", ".join(f"x{k}" for k in range(10))
    rows2 = ", ".join(f"y{k}" for k in range(10))
    f = tmp_path / "big.qinl"
    f.write_text(
        "schema S = { entities A; operations f : A -> A; }\n"
        f"instance I : S = {{ A = {{ hub, {rows} }}; f = {{ hub -> hub, "
        + ", ".join(f"x{k} -> hub" for k in range(10)) + " }; }\n"
        f"instance J : S = {{ A = {{ {rows2} }}; f = {{ "
        + ", ".join(f"y{k} -> y0" for k in range(10)) + " }; }\n")
    for extra in ((), ("--list",)):
        code, out, err = run(capsys, "homs", str(f), "I", "J", *extra)
        assert (code, out) == (1, "")
        assert err == (f"{f}: failure: homomorphism search exceeds 100000 "
                       "search nodes\n")


def test_query_past_its_tuple_guard_exits_1(capsys, tmp_path):
    """for a, b, c: Emp over 50 employees builds 50, 2,500 and then 125,000
    tuples; the third level would pass the 100,000 that a query may build,
    so the query stops before it, in both formats."""
    emps = [f"e{k}" for k in range(50)]
    f = tmp_path / "cube.qinl"
    f.write_text(
        (FIXTURES / "company.qinl").read_text()
        + "instance wide : company = { Emp = { " + ", ".join(emps) + " }; "
        "Dept = { d1 }; manager = { " + ", ".join(f"{e} -> e0" for e in emps)
        + " }; ename = { " + ", ".join(f'{e} -> "a"' for e in emps)
        + " }; worksIn = { " + ", ".join(f"{e} -> d1" for e in emps) + " }; }\n"
        "query cube : company = for a: Emp, b: Emp, c: Emp return worksIn(a)\n")
    for fmt in ("table", "json"):
        code, out, err = run(capsys, "query", str(f), "cube", "wide", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (f"{f}: failure: query binding 'c: Emp' makes 125000 "
                       "more tuples, past the 100000 that a query may build\n")


def _loops(name: str, count: int, prefix: str) -> str:
    rows = [f"{prefix}{k}" for k in range(count)]
    return (f"instance {name} : G = {{ V = {{ {', '.join(rows)} }}; "
            f"next = {{ {', '.join(f'{r} -> {r}' for r in rows)} }}; }}\n")


def test_homs_of_a_disconnected_source_count_past_the_search_guard(capsys,
                                                                   tmp_path):
    """Twenty disjoint loops into three loops are 3**20 homomorphisms,
    counted with one three-node search per loop; listing them exits 1 with
    the count.  64 isolated rows into two rows count 2**64, past what len()
    can hold, with no traceback."""
    f = tmp_path / "loops.qinl"
    f.write_text("schema G = { entities V; operations next : V -> V; }\n"
                 "schema S = { entities E; }\n"
                 + _loops("twenty", 20, "a") + _loops("three", 3, "b")
                 + "instance many : S = { E = { "
                 + ", ".join(f"r{k}" for k in range(64)) + " }; }\n"
                 "instance two : S = { E = { s0, s1 }; }\n")
    code, out, err = run(capsys, "homs", str(f), "twenty", "three")
    assert (code, out, err) == (
        0, "3486784401 homomorphism(s) from twenty to three\n", "")
    code, out, _ = run(capsys, "homs", str(f), "twenty", "three",
                       "--format", "json")
    assert (code, json.loads(out)["count"]) == (0, 3**20)
    code, out, err = run(capsys, "homs", str(f), "twenty", "three", "--list")
    assert (code, out) == (1, "")
    assert err == (f"{f}: failure: 3486784401 homomorphisms are more than "
                   "the 100000 that are listed\n")
    code, out, err = run(capsys, "homs", str(f), "many", "two")
    assert (code, out, err) == (
        0, f"{2**64} homomorphism(s) from many to two\n", "")


def test_homs_schema_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "homs", MIGRATION, "twoNodes", "orgData")
    assert code == 2
    assert "different schemas" in err


def test_env_var_fuel_default(capsys, monkeypatch):
    monkeypatch.setenv("QINL_FUEL", "7")
    code, out, _ = run(capsys, "check", COMPANY, "--format", "json")
    payload = json.loads(out)
    assert payload["config"]["fuel"] == 7


def test_flag_overrides_env_fuel(capsys, monkeypatch):
    monkeypatch.setenv("QINL_FUEL", "7")
    code, out, _ = run(capsys, "check", COMPANY, "--format", "json",
                       "--fuel", "9")
    assert json.loads(out)["config"]["fuel"] == 9


def test_nonpositive_fuel_rejected(capsys):
    code, _, err = run(capsys, "check", COMPANY, "--fuel", "0")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
    (("check",), "the following arguments are required: file"),
    (("check", COMPANY, "--format", "xml"),
     "argument --format: invalid choice: 'xml'"),
    (("check", COMPANY, "--fuel", "x"),
     "argument --fuel: invalid int value: 'x'"),
], ids=["no-command", "unknown-command", "missing-file", "format", "fuel"])
def test_usage_errors_exit_2_alike_from_the_reused_parser(capsys, argv,
                                                          message):
    """`main` builds its parser once per process.  A usage error exits 2
    with the same message on every call, and a command run after it prints
    what it printed when it ran first."""
    build_parser.cache_clear()
    first = run(capsys, "check", COMPANY)
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1]
    assert errors[0].out == ""
    assert errors[0].err.startswith("usage: qinl")
    assert message in errors[0].err
    assert run(capsys, "check", COMPANY) == first


@pytest.mark.parametrize("command, args", [
    ("check", (COMPANY,)),
    ("eval", (COMPANY,)),
    ("query", (COMPANY, "palindromeDepts", "staff")),
    ("migrate", (MIGRATION, "sigma", "toPeople", "orgData", "--out", "out.qinl")),
    ("homs", (MIGRATION, "twoNodes", "threeNodes")),
])
@pytest.mark.parametrize("value", ["0", "-3", "abc", ""])
def test_invalid_env_fuel_exits_2(capsys, monkeypatch, tmp_path, command,
                                  args, value):
    """QINL_FUEL is checked like --fuel by every subcommand, which all read
    it; a flag given alongside it wins."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QINL_FUEL", value)
    assert run(capsys, command, *args) == (
        2, "", "error: QINL_FUEL must be a positive integer\n")
    assert not (tmp_path / "out.qinl").exists()
    code, _, err = run(capsys, command, *args, "--fuel", "8")
    assert (code, err) == (0, "")


def test_huge_fuel_keeps_the_node_cap(capsys, tmp_path):
    """The node budget is capped, however large the fuel: an unprovable
    obligation that saturates at once reports the capped budget."""
    path = tmp_path / "free.qinl"
    path.write_text(
        "schema s = { entities A; operations f : A -> A, g : A -> A;\n"
        "  equations forall x: A . f(x) = g(x); }\n"
        "schema t = { entities A; operations f : A -> A, g : A -> A; }\n"
        "mapping m : s -> t = { A -> A; f -> (x => f(x)); g -> (x => g(x)); }\n")
    for fuel, cap in ((1000, 1_000_000), (10**9, 1_000_000), (7, 7000)):
        code, out, _ = run(capsys, "check", str(path), "--format", "json",
                           "--fuel", str(fuel))
        assert code == 1
        [mapping] = [d for d in json.loads(out)["report"]["declarations"]
                     if d["kind"] == "mapping"]
        [entry] = mapping["preservation"]
        assert (entry["verdict"], entry["node_cap"]) == ("unknown", cap)
        assert entry["stopped"] == "saturated"


def test_node_cap_holds_inside_a_round(capsys, tmp_path):
    """sigma of 400 rows into a schema with three operations and no
    equation: totality adds 1,200 elements in the first round, then 3,600,
    10,800 and 32,400.  The round that passes the cap stops at the element
    past it, at every fuel, and the run reports that the chase did not
    saturate within the node cap.  Each element is an entity class of its
    own, so the partial model size counts the elements: one past the cap."""
    path = tmp_path / "branches.qinl"
    rows = ", ".join(f"r{i}" for i in range(400))
    path.write_text(
        "schema P = { entities E; }\n"
        "schema S = { entities E; operations f : E -> E, g : E -> E, h : E -> E; }\n"
        "mapping M : P -> S = { E -> E; }\n"
        f"instance I : P = {{ E = {{ {rows} }}; }}\n")
    for fuel, cap, grew in (("1", 1000, 601), ("32", 32000, 16001)):
        code, _, err = run(capsys, "migrate", str(path), "sigma", "M", "I",
                           "--fuel", fuel, "--out", str(tmp_path / "out.qinl"))
        assert code == 1
        assert err.endswith(f"chase did not saturate within the node cap of {cap} "
                            f"nodes (partial model size {cap + 1}; E grew by {grew} "
                            "in the last round)\n")


def test_unknown_says_why_the_prover_stopped(capsys, tmp_path):
    """A false claim saturates: the JSON entry says so and the diagnostic
    gives the rounds run, not the fuel.  A claim that keeps growing the
    e-graph runs out of fuel."""
    path = tmp_path / "claims.qinl"
    path.write_text(
        "schema s = { entities E; operations m : E -> E;\n"
        "  equations forall x: E . m(x) = x; }\n"
        "schema t = { entities E; operations m : E -> E; }\n"
        "mapping sat : s -> t = { E -> E; m -> (x => m(x)); }\n"
        "schema s2 = { entities E; operations m : E -> E, f : E -> E;\n"
        "  equations forall x: E . f(x) = f(m(x)); }\n"
        "schema t2 = { entities E; operations m : E -> E, f : E -> E;\n"
        "  equations forall x: E . f(x) = f(m(m(x))); }\n"
        "mapping grow : s2 -> t2 = { E -> E; m -> (x => m(x)); f -> (x => f(x)); }\n")
    code, out, _ = run(capsys, "check", str(path), "--format", "json", "--fuel", "4")
    assert code == 1
    entries = [d["preservation"] for d in json.loads(out)["report"]["declarations"]
               if d["kind"] == "mapping"]
    assert entries == [
        [{"equation": "forall x: E . m(x) = x", "verdict": "unknown",
          "fuel_spent": 1, "node_cap": 4000, "stopped": "saturated"}],
        [{"equation": "forall x: E . f(x) = f(m(x))", "verdict": "unknown",
          "fuel_spent": 4, "node_cap": 4000, "stopped": "fuel"}]]
    _, _, err = run(capsys, "check", str(path), "--fuel", "4")
    assert "unknown for forall x: E . m(x) = x (saturated after 1 round)\n" in err
    assert "unknown for forall x: E . f(x) = f(m(x)) (fuel 4)\n" in err


def test_json_outputs_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "check", COMPANY, "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_console_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qinl.cli", "query", COMPANY,
         "palindromeDepts", "staff"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "d1\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_closed_stdout_exits_1_without_a_traceback(fmt):
    """The reader of stdout is gone before the command writes: it exits 1
    and prints nothing on stderr, at exit either."""
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qinl.cli", "check", COMPANY,
             "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert result.stderr == ""
    assert result.returncode == 1


# --------------------------------------------------------------------------
# Every JSON output validates against the documented schema.

def test_json_outputs_validate_against_documented_schema(capsys, tmp_path):
    import jsonschema

    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "docs"
         / "output-schema.json").read_text())
    exprs = tmp_path / "exprs.qinl"
    exprs.write_text('expr demo = {length("abc")}\n')
    claims = tmp_path / "claims.qinl"
    claims.write_text(
        "schema s = { entities E; operations m : E -> E;\n"
        "  equations forall x: E . m(x) = x; }\n"
        "mapping sat : s -> s = { E -> E; m -> (x => m(x)); }\n")
    out_path = tmp_path / "m.qinl"
    commands = [
        ["check", COMPANY, "--format", "json"],
        ["check", VIOLATION, "--format", "json"],
        ["check", str(claims), "--format", "json"],
        ["eval", str(exprs), "--format", "json"],
        ["query", COMPANY, "palindromeDepts", "staff", "--format", "json"],
        ["migrate", MIGRATION, "delta", "orgId", "orgData",
         "--out", str(out_path), "--format", "json"],
        ["homs", MIGRATION, "twoNodes", "threeNodes", "--list",
         "--format", "json"],
    ]
    for argv in commands:
        main(list(argv))
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema)


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -7, 2**70, 1.5, True, False, None,
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": [1, [2, {}]]}}},
    {"z": -1, "y": [True, False, None], "x": ["", "a", "é", "\u2028"]},
    {"k\"ey": "quote \" and \\ backslash", "ctl": "\x00\x1f\t\n\r\b\f",
     "non-ascii": "Grüße, 日本, \U0001f600", "": ("tuple", 1)},
    ["nested", ["lists", ["of", ["lists"]]], {"b": 1, "a": 2}],
])
def test_json_is_the_text_json_dumps_writes(value):
    """The payload writer gives `json.dumps(..., indent=2, sort_keys=True)`'s
    text for empty and nested containers, key order, escapes, control and
    non-ASCII characters, and every scalar."""
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("rows, body, binders, fuel", [
    (60, "equations forall x: E, y: E, z: E . x = x", 3, "1"),
    (400, "operations f : E -> E; equations forall x: E . f(x) = x; "
          "forall p: E * E . f(p.1) = (p.1, p.2).1", 2, "32"),
], ids=["three_binders", "pair"])
def test_chase_stops_at_its_tuple_cap(capsys, tmp_path, rows, body, binders, fuel):
    """sigma of `rows` rows into a schema whose last equation adds nothing
    meets a tuple of rows per base component of its binders, rows**binders
    in all, in the first round: `p : E * E` has two.  Past the 100,000 that
    a chase may visit, the chase stops, whatever the fuel, and the run
    fails naming the tuple cap."""
    assert rows ** binders > 100_000
    path = tmp_path / "wide.qinl"
    path.write_text(
        "schema P = { entities E; }\n"
        f"schema S = {{ entities E; {body}; }}\n"
        "mapping M : P -> S = { E -> E; }\n"
        f"instance I : P = {{ E = {{ {', '.join(f'r{i}' for i in range(rows))} }}; }}\n")
    code, out, err = run(capsys, "migrate", str(path), "sigma", "M", "I",
                         "--fuel", fuel, "--out", str(tmp_path / "out.qinl"))
    assert (code, out) == (1, "")
    assert err == (f"{path}: failure: chase did not saturate within the tuple "
                   f"cap of 100000 tuples (partial model size {rows})\n")


PROJECTION_PROBE = """\
schema staff = { entities E, D; operations dept : E -> D, head : D -> E;
  equations forall d: D . dept(head(d)) = d; }
schema staff2 = { entities E2, D2; operations w2 : E2 -> D2, k : D2 -> E2;
  equations forall d: D2 . (k(d), d).2 = w2((k(d), d).1); }
mapping M : staff -> staff2 = { E -> E2; D -> D2; dept -> (x => w2(x)); head -> (x => k(x)); }
"""


def test_a_target_equation_written_with_projections_proves(capsys, tmp_path):
    """The target states `d = w2(k(d))` through projections of pairs; in
    base normal form it is that equation, and preservation proves."""
    path = tmp_path / "probe.qinl"
    path.write_text(PROJECTION_PROBE)
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert "mapping M : staff -> staff2: preservation 1/1 proved" in out


LONG_INT = "7" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)


@pytest.mark.skipif(len(LONG_INT) == 1, reason="no limit on int conversion")
@pytest.mark.parametrize("text, loc", [
    ("instance I : S = { E = { a }; k = { a -> LONG }; }", "2:42"),
    ("instance I : S = { E = { a }; k = { a -> -- a comment\n  LONG }; }", "3:3"),
    ("expr e = LONG", "2:10"),
], ids=["plain_table", "token_table", "expr"])
def test_an_int_literal_too_long_is_malformed_input(capsys, tmp_path, text, loc):
    """An Int literal with more digits than Python converts from text is
    reported at the literal, whether a table is read as a column of
    entries, token by token, or it stands in an expression."""
    path = tmp_path / "long.qinl"
    path.write_text("schema S = { entities E; attributes Int; operations k : E -> Int; }\n"
                    + text.replace("LONG", LONG_INT) + "\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.startswith(f"{path}:{loc}: error: ")
    assert err.endswith("integer literal too long\n")


# --------------------------------------------------------------------------
# The exit-code contract on instance tables broken by hand

def _generated_company(seed: int) -> str:
    """The company schema with an identity mapping, a query and an instance
    of a few employees whose names hold `,`, `->`, quotes and escapes."""
    rng = random.Random(seed)
    emps = [f"e{k}" for k in range(rng.randint(2, 6))]
    names = ['"a, b"', '"x -> y"', '"say \\"hi\\""', '"}"', '"t\\tn"', '"ab"']
    return (Path(COMPANY).read_text().split("-- Three employees")[0]
            + "mapping ident : company -> company = { Emp -> Emp; Dept -> Dept;\n"
            "  worksIn -> (x => worksIn(x)); manager -> (x => manager(x));\n"
            "  ename -> (x => ename(x)); }\n"
            "query q : company = for e: Emp return ename(e)\n"
            "instance inst : company = {\n"
            f"  Emp = {{ {', '.join(emps)} }};\n"
            "  Dept = { d0, d1 };\n"
            f"  worksIn = {{ {', '.join(f'{e} -> d{rng.randint(0, 1)}' for e in emps)} }};\n"
            f"  manager = {{ {', '.join(f'{e} -> {e}' for e in emps)} }};\n"
            f"  ename = {{ {', '.join(f'{e} -> {rng.choice(names)}' for e in emps)} }};\n"
            "}\n")


# Each source, and the query and delta that `query` and `migrate delta` run
# on it (names that the source lacks make those commands exit 2).
_MUTANT_SOURCES = {
    "company": (COMPANY, ("palindromeDepts", "staff"), ("ident", "staff")),
    "violation": (VIOLATION, ("q", "crossed"), ("ident", "crossed")),
    "migration": (MIGRATION, ("q", "orgData"), ("orgId", "orgData")),
    "nulls": (NULLS, ("q", "someWords"), ("lengths", "someWords")),
    "pairs": (str(FIXTURES / "pairs.qinl"), ("q", "team"), ("wrapped", "team")),
    "generated1": (1, ("q", "inst"), ("ident", "inst")),
    "generated2": (2, ("q", "inst"), ("ident", "inst")),
}
_FIRST_KEY = re.compile(r"^\s*[^\s,]+")
_MUTATIONS = {
    "drop_comma": lambda body: body.replace(",", "", 1),
    "double_comma": lambda body: body.replace(",", ",,", 1),
    "drop_arrow": lambda body: body.replace("->", "", 1),
    "double_arrow": lambda body: body.replace("->", "-> ->", 1),
    "open_quote": lambda body: '"' + body,
    "stray_brace": lambda body: body.replace(",", " },", 1),
    "keyword_row": lambda body: _FIRST_KEY.sub("for", body, 1),
    "true_row": lambda body: _FIRST_KEY.sub("true", body, 1),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("source", sorted(_MUTANT_SOURCES))
def test_broken_tables_keep_the_exit_code_contract(capsys, tmp_path, source,
                                                   mutation):
    """Each table of each instance of the source, broken one way at a time,
    is malformed input under `check`, `query` and `migrate delta`: exit 2,
    with no traceback."""
    where, query, delta = _MUTANT_SOURCES[source]
    text = _generated_company(where) if isinstance(where, int) else Path(where).read_text()
    tables = list(re.finditer(r"^  \w+ = \{ (.*) \};$", text, re.M))
    assert tables
    path, out = tmp_path / "mutant.qinl", str(tmp_path / "out.qinl")
    for table in tables:
        body = _MUTATIONS[mutation](table[1])
        if body == table[1]:
            continue
        path.write_text(text[:table.start(1)] + body + text[table.end(1):])
        for argv in (["check", str(path)], ["query", str(path), *query],
                     ["migrate", str(path), "delta", *delta, "--out", out]):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "Traceback" not in err
