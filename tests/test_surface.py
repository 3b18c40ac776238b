from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from qinl import surface
from qinl.kernel import (App, Base, Pair, Prod, Proj1, Proj2, UNIT, UNIT_TERM, Lit,
                         Var, format_literal)
from qinl.nrc import BOOL, Empty, EqTest, For, If, SetT, Singleton, TRUE, FALSE, Union
from qinl.schema import format_cell
from qinl.surface import (
    MAX_NESTING,
    EquationDecl,
    ExprDecl,
    InstanceDecl,
    InstanceItem,
    MappingDecl,
    MigrateDecl,
    OpDecl,
    OpEntry,
    ParseError,
    QueryBinding,
    QueryDecl,
    SchemaDecl,
    SourceUnit,
    TypeEntry,
    WhereClause,
    elaborate,
    instance_to_decl,
    parse,
    print_declaration,
    print_unit,
    tokenize,
)

from oracles import read_by_tokens, scan_tokens

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# --------------------------------------------------------------------------
# Parsing the corpus

def test_company_fixture_parses_to_expected_shape():
    unit = parse((FIXTURES / "company.qinl").read_text())
    schema = unit.decls[0]
    assert isinstance(schema, SchemaDecl)
    assert sorted(set(schema.entities) | set(schema.attributes)) == \
        ["Dept", "Emp", "Int", "String"]
    assert len(schema.operations) == 5
    assert len(schema.equations) == 3


def test_flagship_query_parses_to_expected_shape():
    unit = parse((FIXTURES / "company.qinl").read_text())
    query = next(d for d in unit.decls if isinstance(d, QueryDecl)
                 and d.name == "palindromeDepts")
    assert len(query.bindings) == 1
    assert len(query.wheres) == 2
    assert query.returns == App("worksIn", Var("e"))


def test_empty_schema_is_valid():
    unit = parse("schema S = { }")
    assert unit.decls[0] == SchemaDecl("S", (), (), (), ())


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse("schema S = {\n  entities A B;\n}")
    assert exc.value.line == 2
    assert exc.value.col > 0


def test_all_parse_failures_have_locations():
    bad_inputs = [
        "schema = { }",
        "instance I : S = { A = { a1 a2 }; }",
        "query q : S = for e Emp return e",
        "expr x = {1",
        "mapping F : S -> = { }",
        "migrate J = gamma F I",
        'instance I : S = { A = { "unterminated }; }',
        "schema S = { entities for; }",
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line >= 1 and exc.value.col >= 1


def test_comments_are_discarded():
    unit = parse("-- a comment\nschema S = { } -- trailing\n")
    assert len(unit.decls) == 1


def test_keywords_rejected_as_identifiers():
    with pytest.raises(ParseError):
        parse("schema union = { }")


def test_negative_int_and_arrow_disambiguation():
    schema = "schema S = { entities E; attributes Int; operations f : E -> Int; }\n"
    for table in ("f = { a -> -3 }", "f = { a->-3 }"):
        unit = parse(schema + f"instance I : S = {{ E = {{ a }}; {table}; }}")
        assert unit.decls[1].items[1].entries == (("a", "-3"),)
        assert elaborate(unit).instances["I"].functions["f"]["a"] == -3


def test_quoted_row_ids():
    unit = parse('schema S = { entities A; }\n'
                 'instance I : S = { A = { "a b", plain }; }')
    assert unit.decls[1].items[0].entries == (('"a b"', None), ("plain", None))
    assert set(elaborate(unit).instances["I"].rows("A")) == {"a b", "plain"}


def test_instance_entries_print_as_written():
    """The printer writes a plain entry's text as it was written, so two
    spellings of one literal stay apart in the tree and in print; a table
    that goes token by token prints with the token reader's spacing."""
    schema = ("schema S = { entities E; attributes Int, String; "
              "operations k : E -> Int, s : E -> String; }\n")
    unit = parse(schema + 'instance I : S = { E = { a, b }; '
                 'k = { a -> 01, b -> -0 }; s = { a -> "x\ty", '
                 'b -> "z" -- c\n}; }')
    assert print_unit(unit).split("\n")[-5:] == [
        "  E = { a, b };",
        "  k = { a -> 01, b -> -0 };",
        '  s = { a -> "x\ty", b -> "z" };',
        "}",
        ""]
    assert parse(print_unit(unit)) == unit
    other = parse(schema + "instance I : S = { E = { a, b }; "
                  'k = { a -> 1, b -> 0 }; s = { a -> "x\ty", b -> "z" }; }')
    assert other != unit
    assert (elaborate(other).instances["I"].functions
            == elaborate(unit).instances["I"].functions)


# --------------------------------------------------------------------------
# Roundtrip on the corpus

@pytest.mark.parametrize("name", ["company.qinl", "company_broken.qinl",
                                  "company_violation.qinl", "migration.qinl",
                                  "nulls.qinl"])
def test_corpus_roundtrip(name):
    unit = parse((FIXTURES / name).read_text())
    assert parse(print_unit(unit)) == unit


# --------------------------------------------------------------------------
# The tokenizer against the character-stepping oracle


def _scan(tokenizer, text: str):
    try:
        return [tuple(tok) for tok in tokenizer(text)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.col, exc.expected)


def _instance_text(rng: random.Random) -> str:
    """An instance declaration shaped like the benchmark's generated files:
    carriers of row ids, foreign-key tables, and attribute tables of
    strings, integers and nulls, with comments and blank lines."""
    rows = [rng.choice(["e", "d", "r"]) + str(k) for k in range(rng.randint(1, 5))]
    strings = ['""', '"ab"', '"a b"', '"q\\"q"', '"t\\tn"']
    cells = [rng.choice(strings), str(rng.randint(-99, 99)),
             f"?{rng.randint(0, 9)}", rng.choice(rows),
             f"length(?{rng.choice('qu')})"]
    lines = [f"-- instance {rng.random()}", "instance I : S = {",
             f"  E = {{ {', '.join(rows)} }};"]
    for op in ("f", "name"):
        pairs = ", ".join(f"{row} -> {rng.choice(cells)}" for row in rows)
        lines.append(f"  {op} = {{ {pairs} }};")
    return rng.choice(["\n", "\r\n", "\n\n\t"]).join(lines) + "\n}\n"


_ALPHABET = (list(" \r\t\n\"\\?٣²é{}()[],;:.*=-_>aZ09") +
             ["--", "->", "=>", "\\n", "\\q", "?x", "schema", "union"])


_ERRORS = ("bad escape", "unterminated string", "lone '?'", "unexpected character")


def test_tokenizer_matches_the_character_stepping_oracle():
    rng = random.Random(11)
    fixtures = [path.read_text() for path in sorted(FIXTURES.glob("*.qinl"))]
    instances = [_instance_text(rng) for _ in range(2000)]
    randoms = ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 30)))
               for _ in range(9000)]
    seeds = fixtures + instances + randoms
    mutated = []
    for _ in range(9000):
        text = rng.choice(seeds)
        start = rng.randrange(len(text) + 1)
        piece = text[start:start + rng.randint(0, 200)]
        cut = rng.randrange(len(piece) + 1)
        if rng.random() < 0.5:
            piece = piece[:cut] + rng.choice(_ALPHABET) + piece[cut:]
        else:
            piece = piece[:cut] + piece[cut + rng.randint(1, 3):]
        mutated.append(piece)
    inputs = seeds + mutated
    assert len(inputs) >= 20_000
    scanned, errors = 0, set()
    for text in inputs:
        got = _scan(tokenize, text)
        assert got == _scan(scan_tokens, text), repr(text)
        if isinstance(got, list):
            scanned += 1
        else:
            errors.update(kind for kind in _ERRORS if kind in got[0])
    assert scanned > 1000 and errors == set(_ERRORS)


# --------------------------------------------------------------------------
# Instance tables: the table read by one `findall` against the token path

def _parsed(text: str):
    """The parse with its locations, or the ParseError's fields."""
    try:
        return repr(parse(text))
    except ParseError as exc:
        return (str(exc), exc.line, exc.col, exc.expected)


def _benchmark_tables(rng: random.Random) -> str:
    """An instance shaped like the benchmark's: carriers and foreign-key and
    attribute tables, each on one line."""
    emps = [f"e{k}" for k in range(rng.randint(1, 6))]
    depts = [f"d{k}" for k in range(rng.randint(1, 4))]
    return "\n".join([
        "instance inst : company = {",
        f"  Emp = {{ {', '.join(emps)} }};",
        f"  Dept = {{ {', '.join(depts)} }};",
        "  worksIn = { " + ", ".join(f"{e} -> {rng.choice(depts)}"
                                     for e in emps) + " };",
        "  ename = { " + ", ".join(f'{e} -> "n{rng.randint(-9, 9)}"'
                                   for e in emps) + " };",
        "  age = { " + ", ".join(f"{e} -> {rng.randint(-9, 9)}"
                                 for e in emps) + " };",
        "}\n"])


# Edits that make the entries a table row cannot read: keywords as row ids,
# `->` with no value, mixed rows and arrows, trailing commas, builtin
# applications, negative integers before `->`, comments, CRLF line ends,
# and bad tokens.
_TABLE_EDITS = [",", ", ", " , }", " -> ", "->", " -7 -> ", "-7->", " true ",
                " false", " for ", "schema ", " length(?q)", "length(", "?",
                " ?0", "-- c\n", "--", "\r\n", "\n", "}", "{", ";", '"s',
                ' "s" ', "@", "(", ")", " a", "1", " "]


def test_table_rows_parse_as_the_token_path_does(monkeypatch):
    """Every input parses to the same declarations with the same locations,
    or fails with the same ParseError, whether a table of plain entries is
    read by one `findall` or, with that pattern disabled, token by token."""
    rng = random.Random(12)
    fixtures = [path.read_text() for path in sorted(FIXTURES.glob("*.qinl"))]
    seeds = ([_instance_text(rng) for _ in range(300)]
             + [_benchmark_tables(rng) for _ in range(300)])
    inputs = fixtures + seeds
    while len(inputs) < 20_000:
        text = rng.choice(fixtures) if rng.random() < 0.02 else rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            cut = rng.randrange(len(text) + 1)
            if rng.random() < 0.7:
                text = text[:cut] + rng.choice(_TABLE_EDITS) + text[cut:]
            else:
                text = text[:cut] + text[cut + rng.randint(1, 4):]
        inputs.append(text)
    by_row = [_parsed(text) for text in inputs]
    monkeypatch.setattr(surface, "_ENTRY", re.compile(r"()()(.)", re.DOTALL))
    by_token = [_parsed(text) for text in inputs]
    assert by_row == by_token
    messages = " ".join(r[0] for r in by_row if isinstance(r, tuple))
    assert sum(isinstance(r, str) for r in by_row) > 2000
    for message in ("mixes rows and arrows", "expected a row id",
                    "unexpected token", "unexpected character",
                    "unterminated string"):
        assert message in messages


def test_a_bad_token_is_reported_before_an_earlier_syntax_error():
    for text, error in [
            ("instance I : S = { A = { a1 a2 }; }\n@\n",
             ("2:1: unexpected character '@'", 2, 1, None)),
            ('instance I : S = { f = { a -> , b }; }\n"open\n',
             ("2:1: unterminated string literal", 2, 1, None)),
            ("schema S = { entities for; } ?",
             ("1:30: lone '?' (expected a null label like ?0)", 1, 30,
              "a null label like ?0"))]:
        assert _parsed(text) == error


# --------------------------------------------------------------------------
# Instance tables against the token-by-token reader and its per-cell
# resolution

_TABLE_SCHEMA = """schema S = {
  entities E, D;
  attributes String, Int;
  operations
    length : String -> Int,
    reverse : String -> String,
    d : E -> D,
    m : E -> E,
    n : E -> String,
    k : E -> Int;
}
"""

_TABLE_FEATURES = (
    "plain", "quoted_escape", "null", "builtin_app", "bool", "keyword_row",
    "comment", "crlf", "empty_table", "mixed", "trailing_comma",
    "name_in_attribute", "int_in_entity", "out_of_carrier", "bad_token",
    "conflict", "repeat")


def _table_instance(rng: random.Random, features: Counter) -> str:
    """An instance on `_TABLE_SCHEMA`: tables of every codomain, mostly well
    formed, with unusual or faulty entries drawn at random.  `features`
    counts the texts that hold each kind named in `_TABLE_FEATURES`."""
    used = set()

    def draw(feature: str, p: float) -> bool:
        if rng.random() < p:
            used.add(feature)
            return True
        return False

    def row(r: str) -> str:
        bare = re.fullmatch(r"[a-z][a-z0-9]*", r) and rng.random() < 0.9
        return r if bare else format_literal(r)

    es = [f"e{j}" for j in range(rng.randint(1, 4))]
    if draw("quoted_escape", 0.2):
        es.append(rng.choice(['q"q', "a b", "t\tn", "x\\y"]))
    ds = [f"d{j}" for j in range(rng.randint(1, 3))]
    strings = ["", "ab", "a b", 'say "hi"', "tab\there", "}{", "a, b", "x -> y"]
    columns = {
        "d": lambda: row(rng.choice(ds)),
        "m": lambda: row(rng.choice(es)),
        "n": lambda: (format_literal(rng.choice(strings)) if rng.random() < 0.7
                      else rng.choice(["?q", "?7", "reverse(?q)"])),
        "k": lambda: (str(rng.randint(-20, 20)) if rng.random() < 0.7
                      else rng.choice(["?q", "length(?q)", "01", "-007",
                                       "length(reverse(?w))"])),
    }
    faults = {
        "d": [("int_in_entity", "7"), ("int_in_entity", "-1"),
              ("null", "?0"), ("builtin_app", "length(?q)"), ("bool", "true")],
        "m": [("int_in_entity", "0"), ("quoted_escape", '"e\\"0"')],
        "n": [("name_in_attribute", "bob"), ("out_of_carrier", "12"),
              ("builtin_app", "length(?q)"), ("builtin_app", 'reverse("a")'),
              ("builtin_app", "d(?q)"), ("builtin_app", "reverse( -- c\n ?q )"),
              ("bool", "true")],
        "k": [("out_of_carrier", '"5"'), ("bool", "false"),
              ("builtin_app", "reverse(?q)"), ("name_in_attribute", "e0"),
              ("builtin_app", "length(reverse(length(?q)))")],
    }

    def gap() -> str:
        if draw("comment", 0.003):
            return " -- note, with } and ->\n    "
        if draw("crlf", 0.003):
            return "\r\n    "
        return rng.choice([" ", "", "\n    ", "  "])

    def table(entries: list[str]) -> str:
        if not entries or draw("empty_table", 0.015):
            return "{ }"
        if draw("mixed", 0.015):
            j = rng.randrange(len(entries))
            entries[j] = (entries[j].split("->")[0].strip() if "->" in entries[j]
                          else entries[j] + " -> e0")
        if draw("bad_token", 0.01):
            j = rng.randrange(len(entries))
            entries[j] = rng.choice(["@", '"open', "?", "e0 @"])
        if draw("keyword_row", 0.015):
            j = rng.randrange(len(entries))
            entries[j] = rng.choice(["for", "true", "schema -> d0", "false -> e0"])
        body = entries[0]
        for entry in entries[1:]:
            body += gap() + "," + gap() + entry
        if draw("trailing_comma", 0.015):
            body += ","
        return "{" + gap() + body + gap() + "}"

    items = [f"E = {table([row(e) for e in es])};",
             f"D = {table([row(d) for d in ds])};"]
    for op, value in columns.items():
        entries = []
        for e in rng.sample(es, len(es)):
            cell = value()
            if rng.random() < 0.05:
                feature, cell = rng.choice(faults[op])
                used.add(feature)
            if cell[0] == "?" or cell[-1] == ")":
                used.add("null" if cell[0] == "?" else "builtin_app")
            arrow = rng.choice([" -> ", "->", " ->" + gap()])
            entries.append(row(e) + arrow + cell)
            if draw("conflict", 0.015):
                entries.append(row(e) + arrow + value())
            if draw("repeat", 0.015):
                entries.append(entries[-1])
        if rng.random() < 0.03:
            entries.append(f"{row(rng.choice(es))} -> {value()}")
        items.append(f"{op} = {table(entries)};")
    if not used & {"comment", "crlf", "mixed", "bad_token", "keyword_row",
                   "trailing_comma", "builtin_app", "bool"}:
        used.add("plain")
    rng.shuffle(items)
    if rng.random() < 0.05:
        items.pop()
    features.update(used)
    return "instance I : S = {\n  " + "\n  ".join(items) + "\n}\n"


def _elaborated(read) -> object:
    """The instances and diagnostics of a read, or its ParseError's fields."""
    try:
        elab = read()
    except ParseError as exc:
        return (str(exc), exc.line, exc.col, exc.expected)
    return elab.instances, [(d.line, d.col, d.severity, d.message)
                            for d in elab.diagnostics]


def test_instance_tables_elaborate_as_the_token_reader_did():
    """Every generated instance text gives the same instances, or the same
    diagnostics with their locations, or the same ParseError, as the
    token-by-token reader that resolved each cell on its own."""
    rng = random.Random(15)
    features: Counter = Counter()
    outcomes: Counter = Counter()
    for _ in range(3000):
        text = _TABLE_SCHEMA + _table_instance(rng, features)
        got = _elaborated(lambda: elaborate(parse(text)))
        assert got == _elaborated(lambda: read_by_tokens(text)), text
        if isinstance(got, tuple) and isinstance(got[0], str):
            outcomes["parse error"] += 1
        elif got[1]:
            outcomes["diagnostics"] += 1
            outcomes.update(m for m in ("two values", "not a", "expected",
                                        "builtin", "argument")
                            if any(m in d[3] for d in got[1]))
        else:
            outcomes["instance"] += 1
    assert {f: features[f] for f in _TABLE_FEATURES if features[f] < 20} == {}
    assert min(outcomes.values()) >= 20, outcomes


def _carrier_by_entry(item):
    """`surface._carrier` as it read a carrier, one entry at a time."""
    rows = []
    for index, (key, value) in enumerate(item.entries):
        if value is not None:
            raise surface._BadEntry(
                f"carrier '{item.name}' cannot contain arrows", -1, index)
        row = surface._row_id(key)
        if row is None:
            raise surface._BadEntry(f"row id expected in carrier '{item.name}'",
                                    -1, index)
        rows.append(row)
    return rows


def _table_by_entry(schema, item):
    """`surface._table` as it read a table, one entry at a time through
    `_row_id` and `_cell`."""
    cod = schema.tables[item.name][1]
    show = surface._row_text if cod in schema.entity_types else format_cell
    table = {}
    for index, (key, value) in enumerate(item.entries):
        if value is None:
            raise surface._BadEntry(
                f"table '{item.name}' needs 'row -> value' entries", -1, index)
        row = surface._row_id(key)
        if row is None:
            raise surface._BadEntry("row id expected on the left of ->", -1, index)
        try:
            cell = surface._cell(schema, cod, value)
        except surface._BadEntry as exc:
            exc.index = index
            raise
        first = table.setdefault(row, cell)
        if first != cell:
            raise surface._BadEntry(
                f"table '{item.name}' gives row '{row}' two values: "
                f"{show(first)} and {show(cell)}", -1, index)
    return table


def _table_bytes(text: str) -> str:
    """What reading `text` gives, as text: its ParseError, or each instance
    as `qinl migrate --out` prints one, then each diagnostic."""
    try:
        elab = elaborate(parse(text))
    except ParseError as exc:
        return str(exc)
    return "\n".join(
        [print_declaration(instance_to_decl(name, "S", elab.schemas["S"], i))
         for name, i in elab.instances.items()]
        + [d.render() for d in elab.diagnostics])


# sha256 of `_table_bytes` over the first 400 instances of seed 16 joined by
# "\x00", recorded when tables were read one entry at a time.
_ENTRY_BY_ENTRY_DIGEST = (
    "ee3e8155fdec46d54c77bde5da7cb78c41ede0e2ac8cf6b7971b7b06c76bb376")


def test_instance_tables_elaborate_as_entry_by_entry_conversion(monkeypatch):
    """Reading a table a column at a time gives the instance (its repr:
    cell types and row order too) or the diagnostics, with their line and
    column, that converting each entry on its own through `_row_id` and
    `_cell` gives; on a fixed corpus, the bytes recorded when that was the
    only reading."""
    rng = random.Random(16)
    texts = [_TABLE_SCHEMA + _table_instance(rng, Counter()) for _ in range(1500)]

    def outcomes() -> list[str]:
        return [repr(_elaborated(lambda: elaborate(parse(text)))) for text in texts]
    got = outcomes()
    digest = hashlib.sha256("\x00".join(map(_table_bytes, texts[:400])).encode())
    monkeypatch.setattr(surface, "_carrier", _carrier_by_entry)
    monkeypatch.setattr(surface, "_table", _table_by_entry)
    assert got == outcomes()
    assert digest.hexdigest() == _ENTRY_BY_ENTRY_DIGEST


# --------------------------------------------------------------------------
# Roundtrip on generated declarations

TYPE_LEAVES = [UNIT, Base("A"), Base("B"), Base("String"), Base("Int"), BOOL]


def random_type(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(TYPE_LEAVES)
    if rng.random() < 0.5:
        return Prod(random_type(rng, depth - 1), random_type(rng, depth - 1))
    return SetT(random_type(rng, depth - 1))


def random_core_term(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice([Var("x"), Var("y"), UNIT_TERM,
                           Lit("Int", rng.randint(-5, 5)),
                           Lit("String", rng.choice(["", "ab", 'a"b', "a\nb"])),
                           Lit("Bool", True)])
    if roll < 0.45:
        return Pair(random_core_term(rng, depth - 1),
                    random_core_term(rng, depth - 1))
    if roll < 0.6:
        inner = Pair(random_core_term(rng, depth - 1),
                     random_core_term(rng, depth - 1))
        return Proj1(inner) if rng.random() < 0.5 else Proj2(inner)
    return App(rng.choice(["f", "g", "h"]), random_core_term(rng, depth - 1))


def random_nrc_expr(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice([Var("x"), TRUE, FALSE, UNIT_TERM,
                           Lit("Int", rng.randint(-3, 3)),
                           Empty(random_type(rng, 1))])
    if roll < 0.35:
        return Union(random_nrc_expr(rng, depth - 1),
                     random_nrc_expr(rng, depth - 1))
    if roll < 0.45:
        return EqTest(random_nrc_expr(rng, depth - 1),
                      random_nrc_expr(rng, depth - 1))
    if roll < 0.55:
        return Singleton(random_nrc_expr(rng, depth - 1))
    if roll < 0.65:
        return If(random_nrc_expr(rng, depth - 1),
                  random_nrc_expr(rng, depth - 1),
                  random_nrc_expr(rng, depth - 1))
    if roll < 0.75:
        return For(rng.choice(["x", "y"]), random_nrc_expr(rng, depth - 1),
                   random_nrc_expr(rng, depth - 1))
    if roll < 0.85:
        return Pair(random_nrc_expr(rng, depth - 1),
                    random_nrc_expr(rng, depth - 1))
    if roll < 0.92:
        inner = random_nrc_expr(rng, depth - 1)
        return Proj1(inner) if rng.random() < 0.5 else Proj2(inner)
    return App(rng.choice(["f", "g"]), random_nrc_expr(rng, depth - 1))


def random_cell_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(["r1", "r2", "zz"])
    if roll < 0.5:
        return format_literal(rng.choice(["", "a b", 'q"q', "r1.next"]))
    if roll < 0.7:
        return str(rng.randint(-9, 9))
    if roll < 0.85:
        return format_literal(rng.random() < 0.5)
    if roll < 0.95:
        return f"?{rng.randint(0, 5)}"
    return rng.choice(["length(?q)", "f(g(?0))"])


def random_declaration(rng: random.Random, index: int, depth: int):
    kind = rng.randrange(6)
    if kind == 0:
        ops = tuple(
            OpDecl(f"op{k}", random_type(rng, depth - 1),
                   random_type(rng, depth - 1))
            for k in range(rng.randint(0, 3)))
        eqs = tuple(
            EquationDecl(
                tuple((v, random_type(rng, 1))
                      for v in ["x", "y"][: rng.randint(0, 2)]),
                random_core_term(rng, depth - 1),
                random_core_term(rng, depth - 1))
            for _ in range(rng.randint(0, 2)))
        return SchemaDecl(f"S{index}",
                          tuple(f"E{k}" for k in range(rng.randint(0, 2))),
                          tuple(f"A{k}" for k in range(rng.randint(0, 2))),
                          ops, eqs)
    if kind == 1:
        items = []
        for k in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                entries = tuple((random_cell_text(rng), None)
                                for _ in range(rng.randint(0, 3)))
                entries = tuple((v, None) for v, _ in entries
                                if v[0] == '"' or v in ("r1", "r2", "zz"))
            else:
                entries = tuple((f"r{j}", random_cell_text(rng))
                                for j in range(rng.randint(0, 3)))
            items.append(InstanceItem(f"item{k}", entries))
        return InstanceDecl(f"I{index}", "S0", tuple(items))
    if kind == 2:
        return MappingDecl(
            f"F{index}", "S0", "S1",
            tuple(TypeEntry(f"E{k}", f"X{k}") for k in range(rng.randint(0, 2))),
            tuple(OpEntry(f"op{k}", "v", random_core_term(rng, depth - 1))
                  for k in range(rng.randint(0, 2))))
    if kind == 3:
        return QueryDecl(
            f"q{index}", "S0",
            tuple(QueryBinding(v, "E0") for v in ["a", "b"][: rng.randint(1, 2)]),
            tuple(WhereClause(random_core_term(rng, depth - 1),
                              random_core_term(rng, depth - 1))
                  for _ in range(rng.randint(0, 2))),
            random_core_term(rng, depth - 1))
    if kind == 4:
        return ExprDecl(f"e{index}", random_nrc_expr(rng, depth))
    return MigrateDecl(f"m{index}", rng.choice(["delta", "sigma", "pi"]),
                       "F0", "I0")


def test_generated_roundtrip_depth6():
    rng = random.Random(2024)
    for trial in range(300):
        unit = SourceUnit(tuple(
            random_declaration(rng, k, depth=6)
            for k in range(rng.randint(1, 3))))
        printed = print_unit(unit)
        assert parse(printed) == unit, printed


def test_long_tuple_prints_flat_and_roundtrips():
    """A 70-item tuple parses into a right-nested chain of pairs; it prints
    as one tuple, which parses back to the same chain."""
    text = "expr e = (" + ", ".join(["1"] * 70) + ")"
    unit = parse(text)
    printed = print_unit(unit)
    assert printed.strip() == text
    assert parse(printed) == unit


def test_deep_set_type_prints_without_brackets_and_roundtrips():
    """`empty[Set Set ... Int]` with 60 `Set`s parses; it prints as written,
    a bracket only around a product operand, and parses back."""
    text = "expr e = empty[" + "Set " * 60 + "Int]"
    unit = parse(text)
    printed = print_unit(unit)
    assert printed.strip() == text
    assert parse(printed) == unit
    pairs = "expr e = empty[Set (Int * Set Int) * Set Set 1]"
    assert print_unit(parse(pairs)).strip() == pairs


def levels(node) -> int:
    """Nodes on the longest path from the root of a tree to a leaf."""
    children = [getattr(node, f.name) for f in dataclasses.fields(node)]
    return 1 + max((levels(c) for c in children if dataclasses.is_dataclass(c)),
                   default=0)


def deepest_accepted(leaf, declare, wrap) -> int:
    """The most levels of wrap(wrap(...leaf...)) that parse back unchanged."""
    tree, deepest = leaf, 0
    while levels(tree) <= MAX_NESTING + 5:
        try:
            unit = parse(print_unit(SourceUnit((declare(tree),))))
        except ParseError as exc:
            assert f"nesting deeper than {MAX_NESTING} levels" in str(exc)
        else:
            assert unit.decls == (declare(tree),)
            deepest = levels(tree)
        tree = wrap(tree)
    return deepest


TYPE = (Base("A"), lambda t: SchemaDecl("S", (), (), (OpDecl("op", t, Base("A")),), ()))
TERM = (Var("x"), lambda t: MappingDecl("F", "S0", "S1", (), (OpEntry("op", "v", t),)))
EXPR = (Var("x"), lambda e: ExprDecl("e", e))


@pytest.mark.parametrize("kind, wrap, deepest", [
    (TERM, lambda t: App("f", t), MAX_NESTING),
    (TERM, Proj1, MAX_NESTING),
    (EXPR, Proj1, MAX_NESTING),
    (EXPR, lambda e: Union(e, TRUE), MAX_NESTING),
    (EXPR, Singleton, MAX_NESTING),
    (EXPR, lambda e: If(TRUE, e, FALSE), MAX_NESTING),
    (TERM, lambda t: Pair(t, Var("y")), 99),
    (TERM, lambda t: App("f", Pair(t, Var("y"))), 99),
    (TERM, lambda t: App("f", Pair(Var("y"), Pair(t, Var("y")))), 73),
    (EXPR, lambda e: App("f", Pair(TRUE, Pair(e, TRUE))), 97),
    (TERM, lambda t: Pair(Var("y"), t), 50),
    (EXPR, lambda e: Pair(TRUE, e), 99),
    (EXPR, lambda e: Union(TRUE, e), 51),
    (EXPR, lambda e: EqTest(e, TRUE), 51),
    (EXPR, lambda e: EqTest(TRUE, e), 51),
    (EXPR, lambda e: For("x", e, TRUE), 51),
    (TYPE, SetT, MAX_NESTING),
    (TYPE, lambda t: Prod(t, Base("B")), 50),
    (TYPE, lambda t: Prod(Base("B"), Prod(t, Base("B"))), 39),
])
def test_what_parses_is_within_the_nesting_limit(kind, wrap, deepest):
    """Whatever parses is at most MAX_NESTING levels deep, the bound the
    recursive walkers downstream rely on.  Each chain is printed and parsed
    back at growing depth; the deepest that parses pins how levels are
    counted.  Chains without brackets are counted exactly.  A bracket counts
    as a level, and so does the last item of a pair or product, so chains
    that print a bracket at every level stop near half the limit.  An
    expression prints a right-nested chain of pairs as one tuple, so its
    chains print one bracket in all."""
    assert deepest_accepted(*kind, wrap) == deepest


def test_nesting_counts_the_pair_of_an_applications_arguments():
    """f(a, y) is App(f, Pair(a, y)): a sits two levels below f.  The
    printer writes it f((a, y)), so the chains above do not reach this."""
    def chain(n: int) -> str:
        return "expr e = " + "f(" * n + "h(x)" + ", y)" * n + "\n"
    n = (MAX_NESTING - 2) // 2
    assert levels(parse(chain(n)).decls[0].body) == MAX_NESTING
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(chain(n + 1))


# --------------------------------------------------------------------------
# Elaboration

def test_elaborate_company_fixture():
    elab = elaborate(parse((FIXTURES / "company.qinl").read_text()))
    assert elab.diagnostics == []
    assert set(elab.schemas) == {"company"}
    assert set(elab.instances) == {"staff", "staffExtended"}
    assert set(elab.queries) == {"palindromeDepts", "allDepts"}


def test_elaborate_broken_fixture_locates_error():
    elab = elaborate(parse((FIXTURES / "company_broken.qinl").read_text()))
    errors = elab.errors()
    assert errors
    assert all(e.line > 0 for e in errors)
    assert any("palindromeDepts" in e.message for e in errors)


def test_elaborate_rejects_duplicate_names():
    elab = elaborate(parse("schema S = { }\nschema S = { }"))
    assert any("duplicate schema name" in d.message for d in elab.errors())


def test_elaborate_unknown_schema_reference():
    elab = elaborate(parse("instance I : Ghost = { }"))
    assert any("unknown schema 'Ghost'" in d.message for d in elab.errors())


def test_elaborate_resolves_cells_by_codomain():
    text = """
schema S = {
  entities E;
  attributes String, Int;
  operations nick : E -> String, age : E -> Int, next : E -> E;
}
instance I : S = {
  E = { r1 };
  nick = { r1 -> "bob" };
  age = { r1 -> 41 };
  next = { r1 -> r1 };
}
"""
    elab = elaborate(parse(text))
    assert elab.diagnostics == []
    inst = elab.instances["I"]
    assert inst.functions["nick"]["r1"] == "bob"
    assert inst.functions["age"]["r1"] == 41
    assert inst.functions["next"]["r1"] == "r1"


def test_elaborate_rejects_ill_typed_cell():
    text = """
schema S = {
  entities E;
  attributes Int;
  operations age : E -> Int;
}
instance I : S = {
  E = { r1 };
  age = { r1 -> "old" };
}
"""
    elab = elaborate(parse(text))
    assert [(d.line, d.col, d.message) for d in elab.errors()] == \
        [(9, 17, 'literal "old" is not a Int')]


def test_elaborate_runs_migrate_directives():
    text = """
schema S = { entities A; }
instance I : S = { A = { a1, a2 }; }
mapping F : S -> S = { A -> A; }
migrate J = sigma F I
"""
    elab = elaborate(parse(text), fuel=8)
    assert elab.diagnostics == []
    assert len(elab.instances["J"].rows("A")) == 2


def test_elaborate_migrate_failure_is_failure_severity():
    text = """
schema S = { entities A; }
schema T = { entities A; operations spin : A -> A; }
instance I : S = { A = { a1 }; }
mapping F : S -> T = { A -> A; }
migrate J = sigma F I
"""
    elab = elaborate(parse(text), fuel=4)
    assert elab.failures()
    assert not elab.errors()


def test_elaborate_checks_migrate_direction():
    text = """
schema S = { entities A; }
schema T = { entities B; }
instance I : S = { A = { a1 }; }
mapping F : S -> T = { A -> B; }
migrate J = delta F I
"""
    elab = elaborate(parse(text))
    assert any("needs an instance on 'T'" in d.message for d in elab.errors())


def test_nulls_parse_into_cells():
    text = """
schema S = {
  entities E;
  attributes String;
  operations nick : E -> String;
}
instance I : S = {
  E = { r1 };
  nick = { r1 -> ?0 };
}
"""
    elab = elaborate(parse(text))
    assert elab.diagnostics == []
    from qinl.schema import LabelledNull
    assert elab.instances["I"].functions["nick"]["r1"] == LabelledNull("0")


def test_instance_to_decl_roundtrips_synthesized_row_ids():
    """Migration outputs have punctuation-laden row ids; the rebuilt
    declaration must survive parse-after-print both structurally and
    semantically."""
    from qinl.mapping import SchemaMapping
    from qinl.migration import pi
    from qinl.schema import Instance
    from qinl.surface import instance_to_decl
    from conftest import entity_schema
    from oracles import isomorphism

    src = entity_schema({"A", "B"}, {})
    tgt = entity_schema({"C"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C", "B": "C"}, {})
    i = Instance.make({"A": ["a1"], "B": ["b1", "b2"]}, {})
    projected = pi(mapping, i, fuel=8)
    decl = instance_to_decl("out", "T", tgt, projected)
    text = print_unit(SourceUnit((decl,)))
    reparsed = parse(text)
    assert reparsed == SourceUnit((decl,))
    full = "schema T = { entities C; }\n" + text
    elab = elaborate(parse(full))
    assert not elab.diagnostics
    assert isomorphism(tgt, elab.instances["out"], projected) is not None
