"""Concrete text syntax for schemas, instances, mappings, comprehension
queries, set-calculus expressions, and migrate directives, with a canonical
pretty-printer satisfying parse(print(ast)) == ast, plus elaboration of
parsed units into semantic objects.

Files use the `.qinl` extension; comments run from `--` to end of line.
The parser is recursive descent over one token of lookahead, scanned when
it is needed: one regular-expression match skips blanks and comments and
reads the next token.  An instance table whose entries are plain,
`row -> value` with only blanks between tokens, is read by one `findall`
and never tokenized; any other table goes token by token.  Either way each
entry is kept as its text.  Locations are offsets into the text, turned
into a line and column only when a diagnostic names one.  A bad token
anywhere in the text is reported before any syntax error, wherever the two
stand.  Terms and set-calculus expressions share their atoms and
projections.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Container, Sequence
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .equality import Equation, Theory, check_theory
from .kernel import (
    MAX_NESTING,
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Pair,
    Proj1,
    Proj2,
    Prod,
    Signature,
    Term,
    TypeExpr,
    UNIT,
    UNIT_TERM,
    Var,
    format_literal,
    format_term,
    format_type,
)
from .mapping import SchemaMapping
from .migration import MIGRATION_FAILURES, ends, migrate
from .nrc import (
    Empty,
    EqTest,
    FALSE,
    For,
    If,
    SetT,
    Singleton,
    TRUE,
    Union,
    nrc_infer_type,
    print_nrc,
)
from .query import Comprehension, typecheck_query
from .schema import (
    FqlSchema,
    Instance,
    LabelledNull,
    OpApplied,
    default_builtins,
    format_cell,
    validate_instance,
)

KEYWORDS = frozenset({
    "schema", "instance", "mapping", "query", "expr", "migrate",
    "entities", "attributes", "operations", "equations", "forall",
    "for", "where", "and", "return", "in", "if", "then", "else",
    "true", "false", "empty", "union", "delta", "sigma", "pi",
    "Set", "Bool",
})

# The text between tokens: blanks, and comments, each running to its line's
# end.  Only this text holds newlines.
_SKIP = r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_INT = r"-?\d+"  # `\d` is exactly `str.isdecimal`
_STRING = r'"(?:[^"\\\n]|\\["\\nt])*"'
_NULL = r"\?[A-Za-z0-9_]+"
_PUNCT = r"->|=>|[{}()\[\],;:.*=]"
# Skip, then one token, with a group per kind: ident or keyword, punct, int,
# string, null, tried in that order (their first characters tell them apart,
# `-` with the next one).  No group matches at the end of the text or before
# a bad character.
_SCAN = re.compile(
    rf"{_SKIP}(?:({_IDENT})|({_PUNCT})|({_INT})|({_STRING})|({_NULL}))?")
# Matched by `findall` up to a table's `}`: one plain entry, `atom [->
# atom]` with blanks only around its tokens, and the `,` before the next
# one or the end of the table; else one character, in the third group,
# which sends the table to the token reader.
_GAP = r"[ \t\r\n]*"
# Past the digits `int` converts from text, the token reader reports an Int.
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or ""
_ATOM = rf"{_IDENT}|-?\d{{1,{_MAX_DIGITS}}}|{_STRING}|{_NULL}"
_ENTRY = re.compile(
    rf"{_GAP}({_ATOM}){_GAP}(?:->{_GAP}({_ATOM}){_GAP})?(?:,(?=.)|\Z)|(.)",
    re.DOTALL)
_IDENT_TEXT = re.compile(_IDENT)
_IDENT_LINES = re.compile(rf"(?:{_IDENT}\n)*{_IDENT}")
_BOOLS = frozenset({"true", "false"})
_BAD_ESCAPE = re.compile(r'"(?:[^"\\\n]|\\["\\nt])*\\([^"\\nt])')
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
# The token kinds, by the group of `_SCAN` that reads them.
IDENT, PUNCT, INT, STRING, NULL = range(1, 6)
_KINDS = ("eof", "ident", "punct", "int", "string", "null")


def line_col(source: str, loc: int) -> tuple[int, int]:
    """The 1-based line and column of offset `loc` in `source`, or (0, 0)
    for NO_LOC."""
    if loc < 0:
        return 0, 0
    return source.count("\n", 0, loc) + 1, loc - source.rfind("\n", 0, loc)


class ParseError(EngineError):
    def __init__(self, message: str, line: int, col: int,
                 expected: str | None = None):
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")
        self.line = line
        self.col = col
        self.expected = expected


class Token(NamedTuple):
    kind: str  # ident | keyword | int | string | null | punct | eof
    text: str
    value: object
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """Every token of `source`, up to and including `eof`: the parser's
    scanner, run to the end, counting lines and columns on from token to token."""
    scanner, tokens, line, start, seen = _Parser(source), [], 1, 0, 0
    while True:
        kind, text, pos = scanner.kind or 0, scanner.text, scanner.pos()
        if newlines := source.count("\n", seen, pos):
            line, start = line + newlines, source.rfind("\n", seen, pos) + 1
        seen = pos
        value = (text if kind == IDENT else scanner.value if kind == INT else
                 _unescape(text) if kind == STRING else text[1:] if kind == NULL else None)
        name = "keyword" if kind == IDENT and text in KEYWORDS else _KINDS[kind]
        tokens.append(Token(name, text, value, line, pos - start + 1))
        if not kind:
            return tokens
        scanner.next()


def _unescape(text: str) -> str:
    """The value of a string literal's text."""
    value = text[1:-1]
    if "\\" in value:
        value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value)
    return value


def _bad_token(source: str, pos: int) -> ParseError:
    c, (line, col) = source[pos], line_col(source, pos)
    if c == '"':
        bad = _BAD_ESCAPE.match(source, pos)
        if bad:
            return ParseError(f"bad escape '\\{bad[1]}'", line, col)
        return ParseError("unterminated string literal", line, col)
    if c == "?":
        return ParseError("lone '?'", line, col, "a null label like ?0")
    return ParseError(f"unexpected character {c!r}", line, col)


# --------------------------------------------------------------------------
# Surface AST.  Location fields never participate in structural equality.
# A location is an offset into the unit's source; `line_col` turns it into a
# line and column when a diagnostic names it.

Loc = int
NO_LOC: Loc = -1
Entry = tuple[str, str | None]


@dataclass
class OpDecl:
    name: str
    dom: TypeExpr
    cod: TypeExpr
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class EquationDecl:
    ctx: tuple[tuple[str, TypeExpr], ...]
    lhs: Term
    rhs: Term
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class SchemaDecl:
    name: str
    entities: tuple[str, ...]
    attributes: tuple[str, ...]
    operations: tuple[OpDecl, ...]
    equations: tuple[EquationDecl, ...]
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class InstanceItem:
    """A carrier or a table as its entries' keys and values (None in a
    carrier), two columns of text: a row id, literal or null as written, or
    a builtin application or `true`/`false` as the token reader spells it."""
    name: str
    keys: tuple[str, ...]
    values: tuple[str | None, ...]
    loc: Loc = field(default=NO_LOC, compare=False)
    # The offset just after the table's `{`, from which `_entry_loc` reads
    # the entries again to locate one.
    body: int | None = field(default=None, compare=False, repr=False)

    @property
    def entries(self) -> tuple[Entry, ...]:
        """Each entry as `(key, value)`."""
        return tuple(zip(self.keys, self.values))


@dataclass
class InstanceDecl:
    name: str
    schema_name: str
    items: tuple[InstanceItem, ...]
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class TypeEntry:
    source: str
    target: str
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class OpEntry:
    name: str
    var: str
    body: Term
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class MappingDecl:
    name: str
    source_name: str
    target_name: str
    type_entries: tuple[TypeEntry, ...]
    op_entries: tuple[OpEntry, ...]
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class QueryBinding:
    var: str
    entity: str
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class WhereClause:
    lhs: Term
    rhs: Term
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class QueryDecl:
    name: str
    schema_name: str
    bindings: tuple[QueryBinding, ...]
    wheres: tuple[WhereClause, ...]
    returns: Term
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class ExprDecl:
    name: str
    body: Term
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class MigrateDecl:
    name: str
    direction: str  # delta | sigma | pi
    mapping_name: str
    instance_name: str
    loc: Loc = field(default=NO_LOC, compare=False)


Declaration = (SchemaDecl | InstanceDecl | MappingDecl | QueryDecl
               | ExprDecl | MigrateDecl)


@dataclass
class SourceUnit:
    decls: tuple[Declaration, ...]
    # The text the declarations were parsed from: their locations index it.
    source: str = field(default="", compare=False, repr=False)


# --------------------------------------------------------------------------
# Parser

class _Parser:
    """Recursive descent over `source` from offset `pos`, with one token of
    lookahead: its `kind`, the group of `_SCAN` that read it (None at the
    end of the text), its `text`, its match `m`, and an int's `value`.
    Readers dispatch on the kind and compare texts: a punctuation or keyword
    text is the text of no other kind of token."""

    def __init__(self, source: str, pos: int = 0):
        self.source = source
        # `depth` is the level of the node being parsed, `base` that of the
        # construct being parsed, and `peak` the deepest level the construct
        # has reached: a binary node built around it (a union, an equality
        # test, a projection, the pair of an application's arguments) pushes
        # all of it one level down.
        self.depth = self.base = self.peak = 0
        self.seek(pos)

    def seek(self, pos: int) -> None:
        """Scan on from offset `pos`."""
        self.scan = _SCAN.finditer(self.source, pos).__next__
        self.next()

    def next(self) -> None:
        """Scan the next token into the lookahead."""
        m = self.m = self.scan()
        kind = self.kind = m.lastindex
        if kind is None:
            self.text = ""
            if m.end() < len(self.source):
                raise _bad_token(self.source, m.end())
            return
        text = self.text = m[kind]
        if kind == INT:
            try:
                self.value = int(text)
            except ValueError:  # more digits than `int` converts from text
                raise self.error("integer literal too long") from None

    def pos(self) -> Loc:
        """The lookahead's offset."""
        return self.m.start(self.kind) if self.kind else self.m.end()

    def error(self, message: str, expected: str | None = None) -> ParseError:
        return ParseError(message, *line_col(self.source, self.pos()), expected)

    def fail(self, message: str, expected: str | None = None) -> ParseError:
        found = self.text if self.kind else "end of input"
        return self.error(f"{message}, found {found!r}", expected)

    def expect(self, text: str) -> None:
        if self.text != text:
            raise self.fail("unexpected token", f"'{text}'")
        self.next()

    def ident(self, what: str) -> str:
        text = self.text
        if self.kind != IDENT or text in KEYWORDS:
            raise self.fail("unexpected token", what)
        self.next()
        return text

    def begin(self, down: int) -> tuple[int, int, int]:
        """Start a construct `down` levels below the current node; `end`
        takes what this returns."""
        saved = (self.depth, self.base, self.peak)
        self.depth += down
        self.base = self.peak = self.depth
        self._check_nesting(self.depth)
        return saved

    def wrap(self) -> None:
        """Put what the construct has parsed so far under a new binary node
        at its level; the node's other operand, if any, sits just below."""
        self.peak += 1
        self.depth = self.base + 1
        self._check_nesting(self.peak)

    def down(self) -> None:
        """Parse the next item of a right-nested sequence one level down."""
        self.depth += 1
        self.peak = max(self.peak, self.depth)
        self._check_nesting(self.depth)

    def end(self, saved: tuple[int, int, int]) -> None:
        depth, base, peak = saved
        self.depth, self.base, self.peak = depth, base, max(peak, self.peak)

    def _check_nesting(self, level: int) -> None:
        if level > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # -- units ---------------------------------------------------------------

    def unit(self) -> SourceUnit:
        decls: list[Declaration] = []
        declarations = {"schema": self.schema_decl,
                        "instance": self.instance_decl,
                        "mapping": self.mapping_decl,
                        "query": self.query_decl, "expr": self.expr_decl,
                        "migrate": self.migrate_decl}
        while self.kind:
            if self.text == ";":
                self.next()
                continue
            declaration = declarations.get(self.text)
            if declaration is None:
                raise self.fail("expected a declaration",
                                "schema/instance/mapping/query/expr/migrate")
            loc = self.pos()
            self.next()
            decls.append(declaration(loc))
        return SourceUnit(tuple(decls), self.source)

    # -- types ----------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        saved = self.begin(1)
        t = self.type_atom()
        if self.text == "*":
            factors = [t]
            while self.text == "*":
                self.next()
                if len(factors) == 1:
                    self.wrap()
                self.down()
                factors.append(self.type_atom())
            t = _nest(Prod, factors)
        self.end(saved)
        return t

    def type_atom(self) -> TypeExpr:
        kind, text = self.kind, self.text
        if kind == IDENT and (text not in KEYWORDS or text == "Bool"):
            self.next()
            return Base(text)
        if kind == INT and self.value == 1:
            self.next()
            return UNIT
        if text == "Set":
            self.next()
            saved = self.begin(1)
            t = SetT(self.type_atom())
            self.end(saved)
            return t
        if text == "(":
            self.next()
            t = self.type_expr()
            self.expect(")")
            return t
        raise self.fail("expected a type", "1, Bool, Set T, a base type, or (")

    # -- terms and set-calculus expressions ---------------------------------------

    def _projections(self, t: Term) -> Term:
        """`t` under the projections `.1` and `.2` that follow it."""
        while self.text == ".":
            self.wrap()
            self.next()
            if self.kind != INT or self.value not in (1, 2):
                raise self.fail("bad projection", ".1 or .2")
            t = Proj1(t) if self.value == 1 else Proj2(t)
            self.next()
        return t

    def _pairs(self, item: Callable[[], Term], wrap_first: bool = False) -> Term:
        """Comma-separated items up to ')', nested to the right in pairs.
        With `wrap_first` the pairs sit one level below the node being
        parsed (an application's arguments), so a comma moves the first item
        under them."""
        depth, base, peak = self.depth, self.base, self.peak
        self.base = self.peak = depth
        parts = [item()]
        while self.text == ",":
            self.next()
            if wrap_first and len(parts) == 1:
                self.wrap()
            self.down()
            parts.append(item())
        self.expect(")")
        self.depth, self.base = depth, base
        if peak > self.peak:
            self.peak = peak
        return _nest(Pair, parts)

    def _atom(self, item: Callable[[], Term], what: str) -> Term:
        """The atoms terms and expressions share: unit, tuples of `item`,
        boolean, string and integer literals, applications, and variables."""
        kind, text = self.kind, self.text
        if kind == IDENT:
            if text not in KEYWORDS:
                self.next()
                if self.text != "(":
                    return Var(text)
                self.next()
                if self.text == ")":
                    self.next()
                    return App(text, UNIT_TERM)
                return App(text, self._pairs(item, wrap_first=True))
            if text in _BOOLS:
                self.next()
                return TRUE if text == "true" else FALSE
        elif text == "(":
            self.next()
            if self.text == ")":
                self.next()
                return UNIT_TERM
            return self._pairs(item)
        elif kind == STRING:
            self.next()
            return Lit("String", _unescape(text))
        elif kind == INT:
            value = self.value
            self.next()
            return Lit("Int", value)
        raise self.fail(what)

    def term(self) -> Term:
        # `begin(1)` and `end`, inlined here and in `_pairs`: they run for
        # every term and every application.
        depth, base, peak = self.depth, self.base, self.peak
        self.depth = self.base = self.peak = depth + 1
        self._check_nesting(depth + 1)
        t = self._projections(self._atom(self.term, "expected a term"))
        self.depth, self.base = depth, base
        if peak > self.peak:
            self.peak = peak
        return t

    def nrc_expr(self) -> Term:
        saved = self.begin(1)
        e = self.nrc_union()
        if self.text == "=":
            self.next()
            self.wrap()
            e = EqTest(e, self.nrc_union())
        self.end(saved)
        return e

    def nrc_union(self) -> Term:
        saved = self.begin(0)
        e = self.nrc_operand()
        while self.text == "union":
            self.next()
            self.wrap()
            e = Union(e, self.nrc_operand())
        self.end(saved)
        return e

    def nrc_operand(self) -> Term:
        saved = self.begin(0)
        e = self._projections(self.nrc_atom())
        self.end(saved)
        return e

    def nrc_atom(self) -> Term:
        text = self.text
        if text not in ("{", "empty", "if", "for"):
            return self._atom(self.nrc_expr, "expected an expression")
        self.next()
        if text == "{":
            e = self.nrc_expr()
            self.expect("}")
            return Singleton(e)
        if text == "empty":
            self.expect("[")
            t = self.type_expr()
            self.expect("]")
            return Empty(t)
        if text == "if":
            cond = self.nrc_expr()
            self.expect("then")
            then = self.nrc_expr()
            self.expect("else")
            return If(cond, then, self.nrc_expr())
        var = self.ident("an iteration variable")
        self.expect("in")
        source = self.nrc_expr()
        self.expect("return")
        return For(var, source, self.nrc_expr())

    # -- declarations ---------------------------------------------------------

    def schema_decl(self, loc: Loc) -> SchemaDecl:
        name = self.ident("a schema name")
        self.expect("=")
        self.expect("{")
        sections: dict[str, tuple] = {}
        while self.text != "}":
            section = self.text
            if section in sections:
                raise self.fail(f"duplicate section '{section}'")
            if section not in ("entities", "attributes", "operations", "equations"):
                raise self.fail(
                    "expected a schema section",
                    "entities, attributes, operations, or equations")
            self.next()
            if section == "equations":
                equations = []
                while self.text != "}":
                    equations.append(self._equation_decl())
                    self.expect(";")
                sections[section] = tuple(equations)
            else:
                item = self._op_decl if section == "operations" else self._type_name
                sections[section] = tuple(self._list(item))
                self.expect(";")
        self.next()
        return SchemaDecl(name, *(sections.get(section, ()) for section in (
            "entities", "attributes", "operations", "equations")), loc)

    def _list(self, item: Callable[[], object], sep: str = ",") -> list:
        """One or more of what `item` reads, separated by `sep`."""
        items = [item()]
        while self.text == sep:
            self.next()
            items.append(item())
        return items

    def _type_name(self) -> str:
        """A declared type's name: an identifier or the keyword `Bool`."""
        if self.text == "Bool":
            self.next()
            return "Bool"
        return self.ident("a type name")

    def _op_decl(self) -> OpDecl:
        loc = self.pos()
        name = self.ident("an operation name")
        self.expect(":")
        dom = self.type_expr()
        self.expect("->")
        return OpDecl(name, dom, self.type_expr(), loc)

    def _equation_decl(self) -> EquationDecl:
        loc = self.pos()
        ctx: list[tuple[str, TypeExpr]] = []
        if self.text == "forall":
            self.next()
            ctx = self._list(self._binding)
            self.expect(".")
        lhs = self.term()
        self.expect("=")
        return EquationDecl(tuple(ctx), lhs, self.term(), loc)

    def _binding(self) -> tuple[str, TypeExpr]:
        name = self.ident("a variable")
        self.expect(":")
        return name, self.type_expr()

    def instance_decl(self, loc: Loc) -> InstanceDecl:
        name = self.ident("an instance name")
        self.expect(":")
        schema_name = self.ident("a schema name")
        self.expect("=")
        self.expect("{")
        items = []
        while self.text != "}":
            items.append(self._instance_item())
        self.next()
        return InstanceDecl(name, schema_name, tuple(items), loc)

    def _instance_item(self) -> InstanceItem:
        loc = self.pos()
        name = self.ident("a type or operation name")
        self.expect("=")
        if self.text != "{":
            raise self.fail("unexpected token", "'{'")
        body = self.m.end()
        columns = self._plain_entries(body)
        plain = columns is not None
        if not plain:
            self.next()
            columns = ((), ()) if self.text == "}" else tuple(zip(*self._list(self._entry)))
        self.expect("}")
        self.expect(";")
        if not plain and len({value is None for value in columns[1]}) > 1:
            raise ParseError(f"item '{name}' mixes rows and arrows",
                             *line_col(self.source, loc))
        return InstanceItem(name, *columns, loc, body)

    def _plain_entries(self, body: int) -> tuple[tuple[str, ...], tuple] | None:
        """The keys and values of a plain table, all rows or all arrows, whose body
        starts at offset `body`, with the lookahead moved to its `}`; else None."""
        end = self.source.find("}", body)
        found = _ENTRY.findall(self.source, body, end) if end > body else None
        if not found:
            return None
        keys, values, flags = zip(*found)
        if any(flags) or not KEYWORDS.isdisjoint(keys):
            return None
        if not any(values):
            values = (None,) * len(keys)
        elif not all(values) or not KEYWORDS.isdisjoint(values):
            return None
        self.seek(end)
        return keys, values

    def _entry(self) -> Entry:
        key = self._cell_text()
        if self.text == "->":
            self.next()
            return key, self._cell_text()
        return key, None

    def _cell_text(self) -> str:
        """A row id, literal, null or builtin application, as text with no
        blanks or comments."""
        kind, text = self.kind, self.text
        if kind == IDENT and text in KEYWORDS:
            if text in _BOOLS:
                self.next()
                return text
        elif kind and kind != PUNCT:
            self.next()
            if kind != IDENT or self.text != "(":
                return text
            self.next()
            saved = self.begin(1)
            arg = self._cell_text()
            self.expect(")")
            self.end(saved)
            return f"{text}({arg})"
        raise self.fail("expected a row id, literal, or null")

    def mapping_decl(self, loc: Loc) -> MappingDecl:
        name = self.ident("a mapping name")
        self.expect(":")
        source = self.ident("a schema name")
        self.expect("->")
        target = self.ident("a schema name")
        self.expect("=")
        self.expect("{")
        type_entries: list[TypeEntry] = []
        op_entries: list[OpEntry] = []
        while self.text != "}":
            entry_loc = self.pos()
            entry = self.ident("a type or operation name")
            self.expect("->")
            if self.text == "(":
                self.next()
                var = self.ident("a bound variable")
                self.expect("=>")
                body = self.term()
                self.expect(")")
                op_entries.append(OpEntry(entry, var, body, entry_loc))
            else:
                type_entries.append(TypeEntry(entry, self.ident("a target type"), entry_loc))
            self.expect(";")
        self.next()
        return MappingDecl(name, source, target, tuple(type_entries),
                           tuple(op_entries), loc)

    def query_decl(self, loc: Loc) -> QueryDecl:
        name = self.ident("a query name")
        self.expect(":")
        schema_name = self.ident("a schema name")
        self.expect("=")
        self.expect("for")
        bindings = self._list(self._query_binding)
        wheres: list[WhereClause] = []
        if self.text == "where":
            self.next()
            wheres = self._list(self._where_clause, "and")
        self.expect("return")
        return QueryDecl(name, schema_name, tuple(bindings), tuple(wheres),
                         self.term(), loc)

    def _query_binding(self) -> QueryBinding:
        loc = self.pos()
        var = self.ident("a binding variable")
        self.expect(":")
        return QueryBinding(var, self.ident("an entity type"), loc)

    def _where_clause(self) -> WhereClause:
        loc = self.pos()
        lhs = self.term()
        self.expect("=")
        return WhereClause(lhs, self.term(), loc)

    def expr_decl(self, loc: Loc) -> ExprDecl:
        name = self.ident("an expression name")
        self.expect("=")
        return ExprDecl(name, self.nrc_expr(), loc)

    def migrate_decl(self, loc: Loc) -> MigrateDecl:
        name = self.ident("a result name")
        self.expect("=")
        direction = self.text
        if direction not in ("delta", "sigma", "pi"):
            raise self.error("expected a migration direction",
                             "delta, sigma, or pi")
        self.next()
        mapping_name = self.ident("a mapping name")
        return MigrateDecl(name, direction, mapping_name,
                           self.ident("an instance name"), loc)


def _nest(node: type, parts: list):
    """`parts` nested to the right in binary `node`s."""
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = node(part, result)
    return result


def parse(text: str) -> SourceUnit:
    """The declarations of `text`.  A bad token anywhere in the text is
    reported before any syntax error, wherever the two stand."""
    try:
        return _Parser(text).unit()
    except ParseError:
        tokenize(text)
        raise


# --------------------------------------------------------------------------
# Printer

def print_declaration(decl: Declaration) -> str:
    if isinstance(decl, SchemaDecl):
        return _print_schema(decl)
    if isinstance(decl, InstanceDecl):
        return _print_instance(decl)
    if isinstance(decl, MappingDecl):
        return _print_mapping(decl)
    if isinstance(decl, QueryDecl):
        return _print_query(decl)
    if isinstance(decl, ExprDecl):
        return f"expr {decl.name} = {print_nrc(decl.body)}"
    if isinstance(decl, MigrateDecl):
        return (f"migrate {decl.name} = {decl.direction} "
                f"{decl.mapping_name} {decl.instance_name}")
    raise EngineError(f"cannot print declaration {decl!r}")


def _print_schema(decl: SchemaDecl) -> str:
    sections = []
    if decl.entities:
        sections.append(f"  entities {', '.join(decl.entities)};")
    if decl.attributes:
        sections.append(f"  attributes {', '.join(decl.attributes)};")
    if decl.operations:
        ops = ",\n".join(
            f"    {op.name} : {format_type(op.dom)} -> {format_type(op.cod)}"
            for op in decl.operations)
        sections.append(f"  operations\n{ops};")
    if decl.equations:
        eqs = "\n".join(f"    {Equation(Context(eq.ctx), eq.lhs, eq.rhs).render()};"
                        for eq in decl.equations)
        sections.append(f"  equations\n{eqs}")
    if not sections:
        return f"schema {decl.name} = {{ }}"
    body = "\n".join(sections)
    return f"schema {decl.name} = {{\n{body}\n}}"


def _print_instance(decl: InstanceDecl) -> str:
    lines = []
    for item in decl.items:
        if not item.keys:
            lines.append(f"  {item.name} = {{ }};")
            continue
        if item.values[0] is None:
            texts = ", ".join(item.keys)
        else:
            texts = ", ".join(map(" -> ".join, zip(item.keys, item.values)))
        lines.append(f"  {item.name} = {{ {texts} }};")
    body = "\n".join(lines)
    if not body:
        return f"instance {decl.name} : {decl.schema_name} = {{ }}"
    return f"instance {decl.name} : {decl.schema_name} = {{\n{body}\n}}"


def _print_mapping(decl: MappingDecl) -> str:
    lines = [f"  {entry.source} -> {entry.target};"
             for entry in decl.type_entries]
    lines += [f"  {entry.name} -> ({entry.var} => {format_term(entry.body)});"
              for entry in decl.op_entries]
    if not lines:
        return f"mapping {decl.name} : {decl.source_name} -> {decl.target_name} = {{ }}"
    body = "\n".join(lines)
    return (f"mapping {decl.name} : {decl.source_name} -> "
            f"{decl.target_name} = {{\n{body}\n}}")


def _print_query(decl: QueryDecl) -> str:
    binds = ", ".join(f"{b.var}: {b.entity}" for b in decl.bindings)
    text = f"query {decl.name} : {decl.schema_name} = for {binds}"
    if decl.wheres:
        clauses = " and ".join(
            f"{format_term(w.lhs)} = {format_term(w.rhs)}" for w in decl.wheres)
        text += f" where {clauses}"
    return f"{text} return {format_term(decl.returns)}"


def print_unit(unit: SourceUnit) -> str:
    return "\n\n".join(print_declaration(d) for d in unit.decls) + "\n"


# --------------------------------------------------------------------------
# Elaboration: surface declarations to semantic objects

@dataclass
class Diagnostic:
    line: int
    col: int
    severity: str  # "error" (malformed) | "failure" (semantic check failed)
    message: str

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


class Unresolved(EngineError):
    """A name that denotes nothing of the kind sought: an "error", or a
    "failure" when it names the result of a failed `migrate` declaration."""

    def __init__(self, message: str, severity: str = "error"):
        super().__init__(message)
        self.severity = severity


@dataclass
class Elaborated:
    unit: SourceUnit
    schemas: dict[str, FqlSchema]
    instances: dict[str, Instance]
    instance_schema: dict[str, str]
    mappings: dict[str, SchemaMapping]
    mapping_schemas: dict[str, tuple[str, str]]
    queries: dict[str, Comprehension]
    query_schema: dict[str, str]
    exprs: dict[str, Term]
    diagnostics: list[Diagnostic]
    failed: set[str]  # migrate declarations that failed, and their users

    def line_col(self, kind: type, name: str) -> tuple[int, int]:
        """The line and column of the first `kind` declaration of `name`,
        or (0, 0) if there is none."""
        locs = (d.loc for d in self.unit.decls if type(d) is kind and d.name == name)
        return line_col(self.unit.source, next(locs, NO_LOC))

    def resolve(self, kind: str, name: str):
        """What `name` denotes as a "schema", "instance", "mapping", "query"
        or "expression"; Unresolved when it denotes none."""
        table = {"schema": self.schemas, "instance": self.instances,
                 "mapping": self.mappings, "query": self.queries,
                 "expression": self.exprs}[kind]
        if name in table:
            return table[name]
        if kind == "instance" and name in self.failed:
            raise Unresolved(f"migration '{name}' failed", "failure")
        raise Unresolved(f"unknown {kind} '{name}'")

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def failures(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "failure"]


def elaborate(unit: SourceUnit, *, fuel: int = 32,
              allow_unverified: bool = False) -> Elaborated:
    """Resolve and validate declarations in order.  Migrate directives are
    executed so later declarations can reference their results; their
    failures (`MIGRATION_FAILURES`) are 'failure' diagnostics, while
    malformed declarations are 'error' diagnostics."""
    out = Elaborated(unit, {}, {}, {}, {}, {}, {}, {}, {}, [], set())

    def err(loc: Loc, message: str, severity: str = "error") -> None:
        out.diagnostics.append(Diagnostic(*line_col(unit.source, loc), severity, message))

    elaborators = {SchemaDecl: _elab_schema, InstanceDecl: _elab_instance,
                   MappingDecl: _elab_mapping, QueryDecl: _elab_query, ExprDecl: _elab_expr,
                   MigrateDecl: partial(_elab_migrate, fuel=fuel,
                                        allow_unverified=allow_unverified)}
    for decl in unit.decls:
        try:
            elaborators[type(decl)](decl, out, err)
        except EngineError as exc:
            err(decl.loc, str(exc))
    return out


def _check_fresh(name: str, table: Container[str], loc: Loc, kind: str, err) -> bool:
    if name in table:
        err(loc, f"duplicate {kind} name '{name}'")
        return False
    return True


def _elab_schema(decl: SchemaDecl, out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, out.schemas, decl.loc, "schema", err):
        return
    base_types = set(decl.entities) | set(decl.attributes)
    operations = {}
    ok = True
    for op in decl.operations:
        if op.name in operations:
            err(op.loc, f"duplicate operation '{op.name}'")
            ok = False
            continue
        operations[op.name] = (op.dom, op.cod)
    equations = tuple(
        Equation(Context(eq.ctx), eq.lhs, eq.rhs) for eq in decl.equations)
    theory = Theory.of(Signature.of(base_types, operations), equations)
    schema = FqlSchema(theory, frozenset(decl.entities),
                       frozenset(decl.attributes))
    for problem in schema.validate():
        err(decl.loc, f"schema '{decl.name}': {problem}")
        ok = False
    for problem in check_theory(theory):
        loc = decl.equations[problem.index].loc
        err(loc, f"equation '{problem.equation}': {problem.message}")
        ok = False
    if ok:
        out.schemas[decl.name] = schema


def _elab_instance(decl: InstanceDecl, out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, {*out.instances, *out.failed}, decl.loc, "instance", err):
        return
    schema = out.resolve("schema", decl.schema_name)
    carriers: dict[str, list[str]] = {}
    functions: dict[str, dict[str, object]] = {}
    seen: set[str] = set()
    ok = True
    for item in decl.items:
        if item.name in seen:
            err(item.loc, f"duplicate item '{item.name}'")
            ok = False
            continue
        seen.add(item.name)
        try:
            if item.name in schema.entity_types:
                carriers[item.name] = _carrier(item)
            elif item.name in schema.tables:
                functions[item.name] = _table(schema, item)
            elif item.name in schema.sig.operations:
                err(item.loc,
                    f"operation '{item.name}' is builtin; its semantics "
                    f"are registered, not tabulated")
                ok = False
            else:
                err(item.loc,
                    f"'{item.name}' is neither an entity type nor an "
                    f"operation of schema '{decl.schema_name}'")
                ok = False
        except _BadEntry as exc:
            err(_entry_loc(out.unit.source, item, exc.index, exc.depth), exc.message)
            ok = False
    if not ok:
        return
    instance = Instance.make(carriers, functions)
    problems = validate_instance(schema, instance)
    for problem in problems:
        err(decl.loc, f"instance '{decl.name}': {problem}")
    if not problems:
        out.instances[decl.name] = instance
        out.instance_schema[decl.name] = decl.schema_name


class _BadEntry(Exception):
    """The entry of an item that elaboration rejects: the message, the
    entry's index, and where in the entry: its key when `depth` is -1, else
    `depth` builtin applications into its value."""

    def __init__(self, message: str, depth: int = -1, index: int = 0):
        super().__init__(message)
        self.message, self.depth, self.index = message, depth, index


def _entry_loc(source: str, item: InstanceItem, index: int, depth: int) -> Loc:
    """The place in entry `index` of `item` that `_BadEntry` gives, found by
    reading the entries again from the item's body in `source`."""
    if item.body is None:
        return item.loc
    parser = _Parser(source, item.body)
    for _ in range(index):
        parser._entry()
        parser.next()
    if depth >= 0:
        parser._cell_text()
        parser.next()
        for _ in range(2 * depth):
            parser.next()
    return parser.pos()


def _kind(text: str) -> str:
    """What an entry's text is: "string", "null", "app" (a builtin
    application), "bool", "row" or "int"."""
    c = text[0]
    if c == '"':
        return "string"
    if c == "?":
        return "null"
    if text[-1] == ")":
        return "app"
    if text in _BOOLS:
        return "bool"
    return "row" if c.isalpha() else "int"


def _row_id(text: str) -> str | None:
    """The row id a row or quoted string names, or None for any other
    entry text."""
    kind = _kind(text)
    if kind == "row":
        return text
    return _unescape(text) if kind == "string" else None


def _row_ids(texts: Sequence[str]) -> Sequence[str] | None:
    """The row ids a column of token texts names, or None if `_row_id` rejects one."""
    if all(map(str.isidentifier, texts)) and _BOOLS.isdisjoint(texts):
        return texts
    rows = list(map(_row_id, texts))
    return None if None in rows else rows


def _cells(schema: FqlSchema, cod: str, texts: Sequence[str]) -> Sequence | None:
    """The cells of a column of value texts into `cod`, or None if `_cell` rejects
    one: row ids, unescaped String and Int literals at once, else one by one."""
    if cod in schema.entity_types:
        return _row_ids(texts)
    carrier, joined = schema.builtins.carriers.get(cod), "".join(texts)
    if carrier is str and set(map(itemgetter(0), texts)) == {'"'} and "\\" not in joined:
        return list(map(itemgetter(slice(1, -1)), texts))
    if carrier is int and joined.replace("-", "").isdecimal():
        return list(map(int, texts))
    try:
        return [_cell(schema, cod, text) for text in texts]
    except _BadEntry:
        return None


def _carrier(item: InstanceItem) -> Sequence[str]:
    """The rows of carrier `item.name` as one column, else the first bad entry."""
    if not any(item.values) and (rows := _row_ids(item.keys)) is not None:
        return rows
    for index, (key, value) in enumerate(item.entries):
        if value is not None:
            raise _BadEntry(
                f"carrier '{item.name}' cannot contain arrows", -1, index)
        if _row_id(key) is None:
            raise _BadEntry(f"row id expected in carrier '{item.name}'",
                            -1, index)


def _table(schema: FqlSchema, item: InstanceItem) -> dict[str, object]:
    """The table of operation `item.name` as a column of rows and one of cells,
    else the first bad entry or row given two values; a repeated entry is fine."""
    cod, values = schema.tables[item.name][1], item.values
    rows = _row_ids(item.keys) if all(values) else None
    if rows is not None and (cells := _cells(schema, cod, values)) is not None:
        table = dict(zip(rows, cells))
        if len(table) == len(rows) or len(set(zip(rows, cells))) == len(table):
            return table
    show = _row_text if cod in schema.entity_types else format_cell
    seen: dict[str, object] = {}
    for index, (key, value) in enumerate(item.entries):
        if value is None:
            raise _BadEntry(
                f"table '{item.name}' needs 'row -> value' entries", -1, index)
        row = _row_id(key)
        if row is None:
            raise _BadEntry("row id expected on the left of ->", -1, index)
        try:
            cell = _cell(schema, cod, value)
        except _BadEntry as exc:
            exc.index = index
            raise
        first = seen.setdefault(row, cell)
        if first != cell:
            raise _BadEntry(
                f"table '{item.name}' gives row '{row}' two values: "
                f"{show(first)} and {show(cell)}", -1, index)


def _cell(schema: FqlSchema, cod: str, text: str, depth: int = 0):
    """The cell a value text gives an operation into type `cod`: a row id,
    a literal in the carrier, a null, or a builtin application of a null."""
    if cod in schema.entity_types:
        row = _row_id(text)
        if row is None:
            raise _BadEntry(f"row id of type {cod} expected", depth)
        return row
    kind = _kind(text)
    if kind == "null":
        return LabelledNull(text[1:])
    if kind == "app":
        return _application(schema, cod, text, depth)
    if kind == "string":
        value = _unescape(text)
    elif kind == "bool":
        value = text == "true"
    elif kind == "row":
        raise _BadEntry(f"'{text}' is not a {cod} literal", depth)
    else:
        value = int(text)
    if not schema.builtins.in_carrier(cod, value):
        raise _BadEntry(f"literal {format_literal(value)} is not a {cod}", depth)
    return value


def _application(schema: FqlSchema, cod: str, text: str, depth: int):
    """A builtin of the schema applied to a null or to another such
    application, giving type `cod`."""
    op, arg = text[:-1].split("(", 1)
    if op not in schema.sig.operations or op in schema.tables:
        raise _BadEntry(f"'{op}' is not a builtin operation of the schema",
                        depth)
    dom, op_cod = schema.sig.op_type(op)
    if op_cod != Base(cod):
        raise _BadEntry(f"'{op}' gives {format_type(op_cod)}, not {cod}", depth)
    if _kind(arg) not in ("null", "app"):
        raise _BadEntry(f"the argument of '{op}' must be a null or a builtin "
                        f"application of one", depth + 1)
    return OpApplied(op, _cell(schema, dom.name, arg, depth + 1))


def _elab_mapping(decl: MappingDecl, out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, out.mappings, decl.loc, "mapping", err):
        return
    source = out.resolve("schema", decl.source_name)
    target = out.resolve("schema", decl.target_name)
    type_map: dict[str, str] = {}
    for entry in decl.type_entries:
        if entry.source in type_map:
            err(entry.loc, f"duplicate type image for '{entry.source}'")
            return
        type_map[entry.source] = entry.target
    op_map: dict[str, tuple[str, Term]] = {}
    for entry in decl.op_entries:
        if entry.name in op_map:
            err(entry.loc, f"duplicate operation image for '{entry.name}'")
            return
        op_map[entry.name] = (entry.var, entry.body)
    mapping = SchemaMapping(source, target, type_map, op_map)
    problems = mapping.validate()
    for problem in problems:
        err(decl.loc, f"mapping '{decl.name}': {problem}")
    if not problems:
        out.mappings[decl.name] = mapping
        out.mapping_schemas[decl.name] = (decl.source_name, decl.target_name)


def _elab_query(decl: QueryDecl, out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, out.queries, decl.loc, "query", err):
        return
    schema = out.resolve("schema", decl.schema_name)
    query = Comprehension(
        tuple((b.var, b.entity) for b in decl.bindings),
        tuple((w.lhs, w.rhs) for w in decl.wheres),
        decl.returns)
    try:
        typecheck_query(schema, query)
    except EngineError as exc:
        err(decl.loc, f"query '{decl.name}': {exc}")
        return
    out.queries[decl.name] = query
    out.query_schema[decl.name] = decl.schema_name


def _elab_expr(decl: ExprDecl, out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, out.exprs, decl.loc, "expr", err):
        return
    try:
        nrc_infer_type(default_builtins().schema().sig, Context(), decl.body)
    except EngineError as exc:
        err(decl.loc, f"expr '{decl.name}': {exc}")
        return
    out.exprs[decl.name] = decl.body


def _elab_migrate(decl: MigrateDecl, out: Elaborated, err,
                  fuel: int, allow_unverified: bool) -> None:
    if not _check_fresh(decl.name, {*out.instances, *out.failed}, decl.loc, "instance", err):
        return
    mapping = out.resolve("mapping", decl.mapping_name)
    try:
        instance = out.resolve("instance", decl.instance_name)
    except Unresolved as exc:
        if exc.severity == "error":
            raise
        out.failed.add(decl.name)
        err(decl.loc, f"migrate '{decl.name}': {exc}", "failure")
        return
    read, written = ends(decl.direction, *out.mapping_schemas[decl.mapping_name])
    on = out.instance_schema[decl.instance_name]
    if on != read:
        err(decl.loc,
            f"{decl.direction} along '{decl.mapping_name}' needs an instance "
            f"on '{read}', but '{decl.instance_name}' is on '{on}'")
        return
    try:
        result = migrate(decl.direction, mapping, instance, fuel=fuel,
                         allow_unverified=allow_unverified)
    except MIGRATION_FAILURES as exc:
        out.failed.add(decl.name)
        err(decl.loc, f"migrate '{decl.name}': {exc}", "failure")
        return
    out.instances[decl.name] = result
    out.instance_schema[decl.name] = written


# --------------------------------------------------------------------------
# Rebuilding surface declarations from semantic objects (for output files)

def _row_text(row: str) -> str:
    """A row id as cell text: bare where it reads back as a row, else
    quoted."""
    if _IDENT_TEXT.fullmatch(row) and row not in KEYWORDS:
        return row
    return format_literal(row)


def instance_to_decl(name: str, schema_name: str, schema: FqlSchema,
                     instance: Instance) -> InstanceDecl:
    """Render a semantic instance as a declaration with deterministic
    ordering: carriers first, then tables, all sorted.  Row ids are
    rendered a column at a time, and each distinct cell of a column once."""
    rendered: dict[str, str] = {}

    def row_texts(rows: Sequence[str]) -> Sequence[str]:
        """The column itself when every id is an identifier and no keyword,
        as one match over its lines tells (an id holding a newline makes a
        line more); else each distinct id rendered once, by `_row_text`."""
        lines = "\n".join(rows)
        if (_IDENT_LINES.fullmatch(lines) and lines.count("\n") == len(rows) - 1
                and KEYWORDS.isdisjoint(rows)):
            return rows
        return [rendered.get(row) or rendered.setdefault(row, _row_text(row))
                for row in rows]

    items = []
    for t in sorted(schema.entity_types):
        rows = instance.rows(t)
        items.append(InstanceItem(t, tuple(row_texts(rows)), (None,) * len(rows)))
    for op, (_, cod) in schema.tables.items():
        table = instance.functions.get(op, {})
        rows = sorted(table)
        cells = list(map(table.__getitem__, rows))
        if cod in schema.entity_types:
            texts = row_texts(cells)
        else:
            column = {cell: format_cell(cell) for cell in set(cells)}
            texts = list(map(column.__getitem__, cells))
        items.append(InstanceItem(op, tuple(row_texts(rows)), tuple(texts)))
    return InstanceDecl(name, schema_name, tuple(items))
