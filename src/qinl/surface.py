"""Concrete text syntax for schemas, instances, mappings, comprehension
queries, set-calculus expressions, and migrate directives, with a canonical
pretty-printer satisfying parse(print(ast)) == ast, plus elaboration of
parsed units into semantic objects.

Files use the `.qinl` extension; comments run from `--` to end of line.
The parser is recursive descent and pulls one token of lookahead at a time
from a scanner: one regular-expression match skips blanks and comments and
reads the next token.  A plain instance-table entry, `row -> value,`, is
read in one match of its own; any other entry goes token by token.  A bad
token anywhere in the text is reported before any syntax error, wherever
the two stand.  Terms and set-calculus expressions share their atoms and
projections.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .chase import FuelExhausted, InconsistentConstants
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
    UnitTerm,
    Var,
    format_literal,
    format_term,
    format_type,
)
from .mapping import SchemaMapping
from .migration import UnstatedNull, UnverifiedMapping, delta, pi, sigma
from .nrc import (
    BOOL,
    Bool,
    Empty,
    EqTest,
    FALSE,
    For,
    If,
    SetT,
    Singleton,
    TRUE,
    TrueLit,
    FalseLit,
    Union,
    nrc_infer_type,
)
from .query import Comprehension, typecheck_query
from .schema import (
    BuiltinRegistry,
    FqlSchema,
    Instance,
    LabelledNull,
    OpApplied,
    default_builtins,
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
# end so that no pattern after one can backtrack into it.  Only this text
# holds newlines.
_SKIP = r"(?:[ \t\r\n]|--[^\n]*(?![^\n]))*"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_INT = r"-?\d+"  # `\d` is exactly `str.isdecimal`
_STRING = r'"(?:[^"\\\n]|\\["\\nt])*"'
_NULL = r"\?[A-Za-z0-9_]+"
_PUNCT = r"->|=>|[{}()\[\],;:.*=]"
# Skip, then one token, with a group per kind: ident or keyword, int,
# string, null, punct.  No group matches at the end of the text or before a
# bad character.
_SCAN = re.compile(
    rf"{_SKIP}(?:({_IDENT})|({_INT})|({_STRING})|({_NULL})|({_PUNCT}))?")
# One plain instance-table entry, `atom [-> atom]`, and the `,` after it or
# the `}` that ends the table, which it leaves unread; the first skip is
# that after the `,` before the entry.
_ATOM = f"{_IDENT}|{_INT}|{_STRING}|{_NULL}"
_ROW = re.compile(
    rf"{_SKIP}({_ATOM}){_SKIP}(?:->{_SKIP}({_ATOM}){_SKIP})?(?:(,)|(?=\}}))")
_IDENT_TEXT = re.compile(_IDENT)
_NEWLINE = re.compile("\n")
_BAD_ESCAPE = re.compile(r'"(?:[^"\\\n]|\\["\\nt])*\\([^"\\nt])')
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


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
    scanner, run to the end."""
    scanner = _Parser(source)
    tokens = [scanner.next()]
    while tokens[-1].kind != "eof":
        tokens.append(scanner.next())
    return tokens


def _unescape(text: str) -> str:
    """The value of a string literal's text."""
    value = text[1:-1]
    if "\\" in value:
        value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value)
    return value


def _bad_token(source: str, pos: int, line: int, col: int) -> ParseError:
    c = source[pos]
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

Loc = tuple[int, int]
NO_LOC: Loc = (0, 0)


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
class RawValue:
    kind: str  # name | str | int | bool | null | app
    value: object  # an app's value is (operation, argument RawValue)
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass
class InstanceItem:
    name: str
    entries: tuple[tuple[RawValue, RawValue | None], ...]
    loc: Loc = field(default=NO_LOC, compare=False)


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


# --------------------------------------------------------------------------
# Parser

class _Parser:
    """Recursive descent over `source`, pulling one token of lookahead at a
    time from the scanner."""

    def __init__(self, source: str):
        self.source = source
        # -1 and the offset of each newline: the line of an offset is the
        # number of these before it.
        self.newlines = [-1, *(m.start() for m in _NEWLINE.finditer(source))]
        # `seek` sets the lookahead token `tok` and the offsets in `source`
        # where it starts and ends, `tok_start` and `tok_end`.
        self.seek(0)
        # `depth` is the level of the node being parsed, `base` that of the
        # construct being parsed, and `peak` the deepest level the construct
        # has reached: a binary node built around it (a union, an equality
        # test, a projection, the pair of an application's arguments) pushes
        # all of it one level down.
        self.depth = self.base = self.peak = 0

    def loc(self, pos: int) -> Loc:
        """The line and column of offset `pos`."""
        line = bisect_left(self.newlines, pos)
        return line, pos - self.newlines[line - 1]

    def seek(self, pos: int) -> None:
        """Scan the token after offset `pos` into the lookahead."""
        m = _SCAN.match(self.source, pos)
        index = m.lastindex
        end = m.end()
        start = m.start(index) if index else end
        line, col = self.loc(start)
        if index is None:
            if end < len(self.source):
                raise _bad_token(self.source, end, line, col)
            self.tok = tuple.__new__(Token, ("eof", "", None, line, col))
        else:
            text = m[index]
            if index == 1:
                kind = "keyword" if text in KEYWORDS else "ident"
                value = text
            elif index == 2:
                kind, value = "int", int(text)
            elif index == 3:
                kind, value = "string", _unescape(text)
            elif index == 4:
                kind, value = "null", text[1:]
            else:
                kind, value = "punct", None
            self.tok = tuple.__new__(Token, (kind, text, value, line, col))
        self.tok_start, self.tok_end = start, end

    def peek(self) -> Token:
        return self.tok

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.seek(self.tok_end)
        return tok

    def fail(self, message: str, expected: str | None = None) -> ParseError:
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(f"{message}, found {found!r}", tok.line, tok.col,
                          expected)

    # A punctuation or keyword text is the text of no other kind of token.
    def at(self, text: str) -> bool:
        return self.tok.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.fail("unexpected token", f"'{text}'")
        return self.next()

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

    def expect_ident(self, what: str = "an identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail("unexpected token", what)
        return self.next()

    # -- units ---------------------------------------------------------------

    def unit(self) -> SourceUnit:
        decls: list[Declaration] = []
        declarations = {"schema": self.schema_decl,
                        "instance": self.instance_decl,
                        "mapping": self.mapping_decl,
                        "query": self.query_decl, "expr": self.expr_decl,
                        "migrate": self.migrate_decl}
        while self.peek().kind != "eof":
            if self.accept(";"):
                continue
            tok = self.peek()
            declaration = declarations.get(tok.text)
            if declaration is None:
                raise self.fail("expected a declaration",
                                "schema/instance/mapping/query/expr/migrate")
            self.next()
            decls.append(declaration((tok.line, tok.col)))
        return SourceUnit(tuple(decls))

    # -- types ----------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        saved = self.begin(1)
        factors = [self.type_atom()]
        while self.accept("*"):
            if len(factors) == 1:
                self.wrap()
            self.down()
            factors.append(self.type_atom())
        self.end(saved)
        result = factors[-1]
        for factor in reversed(factors[:-1]):
            result = Prod(factor, result)
        return result

    def type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "int" and tok.value == 1:
            self.next()
            return UNIT
        if self.accept("Bool"):
            return BOOL
        if self.accept("Set"):
            saved = self.begin(1)
            t = SetT(self.type_atom())
            self.end(saved)
            return t
        if tok.kind == "ident":
            self.next()
            return Base(tok.text)
        if self.accept("("):
            t = self.type_expr()
            self.expect(")")
            return t
        raise self.fail("expected a type", "1, Bool, Set T, a base type, or (")

    # -- terms and set-calculus expressions ---------------------------------------

    def _postfix(self, atom: Callable[[], Term], down: int) -> Term:
        """An atom followed by projections `.1` and `.2`."""
        saved = self.begin(down)
        t = atom()
        while self.at("."):
            self.wrap()
            self.next()
            tok = self.peek()
            if tok.kind != "int" or tok.value not in (1, 2):
                raise self.fail("bad projection", ".1 or .2")
            self.next()
            t = Proj1(t) if tok.value == 1 else Proj2(t)
        self.end(saved)
        return t

    def _pairs(self, item: Callable[[], Term], wrap_first: bool = False) -> Term:
        """Comma-separated items up to ')', nested to the right in pairs.
        With `wrap_first` the pairs sit one level below the node being
        parsed (an application's arguments), so a comma moves the first item
        under them."""
        saved = self.begin(0)
        parts = [item()]
        while self.accept(","):
            if wrap_first and len(parts) == 1:
                self.wrap()
            self.down()
            parts.append(item())
        self.expect(")")
        self.end(saved)
        return _nest_pairs(parts)

    def _atom(self, item: Callable[[], Term], what: str) -> Term:
        """The atoms terms and expressions share: unit, tuples of `item`,
        string and integer literals, applications, and variables."""
        tok = self.peek()
        if self.accept("("):
            if self.accept(")"):
                return UNIT_TERM
            return self._pairs(item)
        if tok.kind == "string":
            self.next()
            return Lit("String", tok.value)
        if tok.kind == "int":
            self.next()
            return Lit("Int", tok.value)
        if tok.kind == "ident":
            self.next()
            if self.accept("("):
                if self.accept(")"):
                    return App(tok.text, UNIT_TERM)
                return App(tok.text, self._pairs(item, wrap_first=True))
            return Var(tok.text)
        raise self.fail(what)

    def term(self) -> Term:
        return self._postfix(self.term_atom, 1)

    def term_atom(self) -> Term:
        if self.accept("true"):
            return Lit("Bool", True)
        if self.accept("false"):
            return Lit("Bool", False)
        return self._atom(self.term, "expected a term")

    def nrc_expr(self) -> Term:
        saved = self.begin(1)
        e = self.nrc_union()
        if self.accept("="):
            self.wrap()
            e = EqTest(e, self.nrc_union())
        self.end(saved)
        return e

    def nrc_union(self) -> Term:
        saved = self.begin(0)
        e = self._postfix(self.nrc_atom, 0)
        while self.accept("union"):
            self.wrap()
            e = Union(e, self._postfix(self.nrc_atom, 0))
        self.end(saved)
        return e

    def nrc_atom(self) -> Term:
        if self.accept("{"):
            e = self.nrc_expr()
            self.expect("}")
            return Singleton(e)
        if self.accept("empty"):
            self.expect("[")
            t = self.type_expr()
            self.expect("]")
            return Empty(t)
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.accept("if"):
            cond = self.nrc_expr()
            self.expect("then")
            then = self.nrc_expr()
            self.expect("else")
            return If(cond, then, self.nrc_expr())
        if self.accept("for"):
            var = self.expect_ident("an iteration variable").text
            self.expect("in")
            source = self.nrc_expr()
            self.expect("return")
            return For(var, source, self.nrc_expr())
        return self._atom(self.nrc_expr, "expected an expression")

    # -- declarations ---------------------------------------------------------

    def schema_decl(self, loc: Loc) -> SchemaDecl:
        name = self.expect_ident("a schema name").text
        self.expect("=")
        self.expect("{")
        entities: tuple[str, ...] = ()
        attributes: tuple[str, ...] = ()
        operations: tuple[OpDecl, ...] = ()
        equations: list[EquationDecl] = []
        seen: set[str] = set()
        while not self.at("}"):
            section = self.peek().text
            if section in seen:
                raise self.fail(f"duplicate section '{section}'")
            if self.accept("entities"):
                entities = self._name_list()
                self.expect(";")
            elif self.accept("attributes"):
                attributes = self._name_list()
                self.expect(";")
            elif self.accept("operations"):
                ops = [self._op_decl()]
                while self.accept(","):
                    ops.append(self._op_decl())
                self.expect(";")
                operations = tuple(ops)
            elif self.accept("equations"):
                while not self.at("}"):
                    equations.append(self._equation_decl())
                    self.expect(";")
            else:
                raise self.fail(
                    "expected a schema section",
                    "entities, attributes, operations, or equations")
            seen.add(section)
        self.expect("}")
        return SchemaDecl(name, entities, attributes, operations,
                          tuple(equations), loc)

    def _name_list(self) -> tuple[str, ...]:
        names = [self.expect_ident("a type name").text]
        while self.accept(","):
            names.append(self.expect_ident("a type name").text)
        return tuple(names)

    def _op_decl(self) -> OpDecl:
        tok = self.expect_ident("an operation name")
        self.expect(":")
        dom = self.type_expr()
        self.expect("->")
        cod = self.type_expr()
        return OpDecl(tok.text, dom, cod, (tok.line, tok.col))

    def _equation_decl(self) -> EquationDecl:
        tok = self.peek()
        ctx: list[tuple[str, TypeExpr]] = []
        if self.accept("forall"):
            ctx.append(self._binding())
            while self.accept(","):
                ctx.append(self._binding())
            self.expect(".")
        lhs = self.term()
        self.expect("=")
        rhs = self.term()
        return EquationDecl(tuple(ctx), lhs, rhs, (tok.line, tok.col))

    def _binding(self) -> tuple[str, TypeExpr]:
        name = self.expect_ident("a variable").text
        self.expect(":")
        return name, self.type_expr()

    def instance_decl(self, loc: Loc) -> InstanceDecl:
        name = self.expect_ident("an instance name").text
        self.expect(":")
        schema_name = self.expect_ident("a schema name").text
        self.expect("=")
        self.expect("{")
        items = []
        while not self.at("}"):
            items.append(self._instance_item())
        self.expect("}")
        return InstanceDecl(name, schema_name, tuple(items), loc)

    def _instance_item(self) -> InstanceItem:
        tok = self.expect_ident("a type or operation name")
        self.expect("=")
        self.expect("{")
        entries: list[tuple[RawValue, RawValue | None]] = []
        if not self.at("}"):
            # A plain entry is read in one match, and the lookahead is
            # scanned only where that fails: at an entry such as
            # `length(?q)`, `true` or a malformed one, read token by token,
            # and at the `}` after the last entry.
            source, pos = self.source, self.tok_start
            while True:
                m = _ROW.match(source, pos)
                if m and m[1] not in KEYWORDS and m[2] not in KEYWORDS:
                    key = _plain_raw(m[1], self.loc(m.start(1)))
                    value = (None if m[2] is None
                             else _plain_raw(m[2], self.loc(m.start(2))))
                    entries.append((key, value))
                    pos = m.end()
                    if m[3] is None:
                        self.seek(pos)
                        break
                else:
                    self.seek(pos)
                    entries.append(self._instance_entry())
                    if not self.accept(","):
                        break
                    pos = self.tok_start
        self.expect("}")
        self.expect(";")
        kinds = {entry[1] is None for entry in entries}
        if len(kinds) > 1:
            raise ParseError(f"item '{tok.text}' mixes rows and arrows",
                             tok.line, tok.col)
        return InstanceItem(tok.text, tuple(entries), (tok.line, tok.col))

    def _instance_entry(self) -> tuple[RawValue, RawValue | None]:
        key = self._raw_value()
        if self.accept("->"):
            return key, self._raw_value()
        return key, None

    def _raw_value(self) -> RawValue:
        tok = self.peek()
        loc = (tok.line, tok.col)
        if tok.kind in ("ident", "string", "int", "null"):
            self.next()
            if tok.kind != "ident" or not self.accept("("):
                return _plain_raw(tok.text, loc)
            saved = self.begin(1)
            arg = self._raw_value()
            self.expect(")")
            self.end(saved)
            return RawValue("app", (tok.text, arg), loc)
        if self.accept("true"):
            return RawValue("bool", True, loc)
        if self.accept("false"):
            return RawValue("bool", False, loc)
        raise self.fail("expected a row id, literal, or null")

    def mapping_decl(self, loc: Loc) -> MappingDecl:
        name = self.expect_ident("a mapping name").text
        self.expect(":")
        source = self.expect_ident("a schema name").text
        self.expect("->")
        target = self.expect_ident("a schema name").text
        self.expect("=")
        self.expect("{")
        type_entries: list[TypeEntry] = []
        op_entries: list[OpEntry] = []
        while not self.at("}"):
            tok = self.expect_ident("a type or operation name")
            self.expect("->")
            if self.accept("("):
                var = self.expect_ident("a bound variable").text
                self.expect("=>")
                body = self.term()
                self.expect(")")
                op_entries.append(OpEntry(tok.text, var, body,
                                          (tok.line, tok.col)))
            else:
                target_name = self.expect_ident("a target type").text
                type_entries.append(TypeEntry(tok.text, target_name,
                                              (tok.line, tok.col)))
            self.expect(";")
        self.expect("}")
        return MappingDecl(name, source, target, tuple(type_entries),
                           tuple(op_entries), loc)

    def query_decl(self, loc: Loc) -> QueryDecl:
        name = self.expect_ident("a query name").text
        self.expect(":")
        schema_name = self.expect_ident("a schema name").text
        self.expect("=")
        self.expect("for")
        bindings = [self._query_binding()]
        while self.accept(","):
            bindings.append(self._query_binding())
        wheres: list[WhereClause] = []
        if self.accept("where"):
            wheres.append(self._where_clause())
            while self.accept("and"):
                wheres.append(self._where_clause())
        self.expect("return")
        returns = self.term()
        return QueryDecl(name, schema_name, tuple(bindings), tuple(wheres),
                         returns, loc)

    def _query_binding(self) -> QueryBinding:
        tok = self.expect_ident("a binding variable")
        self.expect(":")
        entity = self.expect_ident("an entity type").text
        return QueryBinding(tok.text, entity, (tok.line, tok.col))

    def _where_clause(self) -> WhereClause:
        tok = self.peek()
        lhs = self.term()
        self.expect("=")
        rhs = self.term()
        return WhereClause(lhs, rhs, (tok.line, tok.col))

    def expr_decl(self, loc: Loc) -> ExprDecl:
        name = self.expect_ident("an expression name").text
        self.expect("=")
        return ExprDecl(name, self.nrc_expr(), loc)

    def migrate_decl(self, loc: Loc) -> MigrateDecl:
        name = self.expect_ident("a result name").text
        self.expect("=")
        tok = self.peek()
        for direction in ("delta", "sigma", "pi"):
            if self.accept(direction):
                mapping_name = self.expect_ident("a mapping name").text
                instance_name = self.expect_ident("an instance name").text
                return MigrateDecl(name, direction, mapping_name,
                                   instance_name, loc)
        raise ParseError("expected a migration direction", tok.line, tok.col,
                         "delta, sigma, or pi")


def _plain_raw(text: str, loc: Loc) -> RawValue:
    """The value of an identifier, integer, string or null token's text."""
    c = text[0]
    if c.isalpha():
        return RawValue("name", text, loc)
    if c == '"':
        return RawValue("str", _unescape(text), loc)
    if c == "?":
        return RawValue("null", text[1:], loc)
    return RawValue("int", int(text), loc)


def _nest_pairs(parts: list[Term]) -> Term:
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Pair(part, result)
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

def print_raw_value(v: RawValue) -> str:
    if v.kind == "null":
        return f"?{v.value}"
    if v.kind == "name":  # the parser and `_row_raw` make only plain ones
        return str(v.value)
    if v.kind == "app":
        op, arg = v.value
        return f"{op}({print_raw_value(arg)})"
    return format_literal(v.value)


def print_nrc(e: Term, level: int = 0) -> str:
    """Levels: 0 full expression, 1 union operand, 2 postfix operand."""
    def wrap(s: str, needed: int) -> str:
        return f"({s})" if level > needed else s

    if isinstance(e, EqTest):
        return wrap(f"{print_nrc(e.left, 1)} = {print_nrc(e.right, 1)}", 0)
    if isinstance(e, Union):
        return wrap(f"{print_nrc(e.left, 1)} union {print_nrc(e.right, 2)}", 1)
    if isinstance(e, If):
        return wrap(f"if {print_nrc(e.cond)} then {print_nrc(e.then)} "
                    f"else {print_nrc(e.els)}", 0)
    if isinstance(e, For):
        return wrap(f"for {e.var} in {print_nrc(e.source, 1)} "
                    f"return {print_nrc(e.body)}", 0)
    if isinstance(e, Singleton):
        return "{" + print_nrc(e.elem) + "}"
    if isinstance(e, Empty):
        return f"empty[{format_type(e.elem)}]"
    if isinstance(e, TrueLit):
        return "true"
    if isinstance(e, FalseLit):
        return "false"
    if isinstance(e, Pair):
        # A right-nested chain is one tuple, as `_nest_pairs` builds it.
        items = [e.fst]
        while isinstance(e.snd, Pair):
            e = e.snd
            items.append(e.fst)
        items.append(e.snd)
        return "(" + ", ".join(print_nrc(item) for item in items) + ")"
    if isinstance(e, Proj1):
        return f"{print_nrc(e.of, 2)}.1"
    if isinstance(e, Proj2):
        return f"{print_nrc(e.of, 2)}.2"
    if isinstance(e, App):
        return f"{e.op}({print_nrc(e.arg)})"
    if isinstance(e, (Var, UnitTerm, Lit)):
        return format_term(e)
    raise EngineError(f"cannot print {e!r}")


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
        eqs = "\n".join(f"    {_print_equation(eq)};" for eq in decl.equations)
        sections.append(f"  equations\n{eqs}")
    if not sections:
        return f"schema {decl.name} = {{ }}"
    body = "\n".join(sections)
    return f"schema {decl.name} = {{\n{body}\n}}"


def _print_equation(eq: EquationDecl) -> str:
    prefix = ""
    if eq.ctx:
        binder = ", ".join(f"{v}: {format_type(t)}" for v, t in eq.ctx)
        prefix = f"forall {binder} . "
    return f"{prefix}{format_term(eq.lhs)} = {format_term(eq.rhs)}"


def _print_instance(decl: InstanceDecl) -> str:
    lines = []
    for item in decl.items:
        if not item.entries:
            lines.append(f"  {item.name} = {{ }};")
            continue
        rendered = []
        for key, value in item.entries:
            if value is None:
                rendered.append(print_raw_value(key))
            else:
                rendered.append(
                    f"{print_raw_value(key)} -> {print_raw_value(value)}")
        lines.append(f"  {item.name} = {{ {', '.join(rendered)} }};")
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
    locs: dict[str, Loc]

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def failures(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "failure"]


def builtin_signature() -> Signature:
    """The ambient signature for standalone set-calculus expressions."""
    return Signature.of(
        {"String", "Int", "Bool"},
        {"length": (Base("String"), Base("Int")),
         "reverse": (Base("String"), Base("String"))})


def elaborate(unit: SourceUnit, *, fuel: int = 32,
              allow_unverified: bool = False,
              builtins: BuiltinRegistry | None = None) -> Elaborated:
    """Resolve and validate declarations in order.  Migrate directives are
    executed so later declarations can reference their results; their
    fuel or verification failures are 'failure' diagnostics, while malformed
    declarations are 'error' diagnostics."""
    registry = builtins or default_builtins()
    out = Elaborated(unit, {}, {}, {}, {}, {}, {}, {}, {}, [], {})
    for decl in unit.decls:
        kind = type(decl).__name__.removesuffix("Decl").lower()
        out.locs.setdefault(f"{kind}:{decl.name}", decl.loc)

    def err(loc: Loc, message: str) -> None:
        out.diagnostics.append(Diagnostic(loc[0], loc[1], "error", message))

    def failure(loc: Loc, message: str) -> None:
        out.diagnostics.append(Diagnostic(loc[0], loc[1], "failure", message))

    for decl in unit.decls:
        try:
            if isinstance(decl, SchemaDecl):
                _elab_schema(decl, registry, out, err)
            elif isinstance(decl, InstanceDecl):
                _elab_instance(decl, out, err)
            elif isinstance(decl, MappingDecl):
                _elab_mapping(decl, out, err)
            elif isinstance(decl, QueryDecl):
                _elab_query(decl, out, err)
            elif isinstance(decl, ExprDecl):
                _elab_expr(decl, registry, out, err)
            elif isinstance(decl, MigrateDecl):
                _elab_migrate(decl, out, err, failure, fuel, allow_unverified)
        except EngineError as exc:
            err(decl.loc, str(exc))
    return out


def _check_fresh(name: str, table: dict, loc: Loc, kind: str, err) -> bool:
    if name in table:
        err(loc, f"duplicate {kind} name '{name}'")
        return False
    return True


def _elab_schema(decl: SchemaDecl, registry: BuiltinRegistry,
                 out: Elaborated, err) -> None:
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
                       frozenset(decl.attributes), registry)
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
    if not _check_fresh(decl.name, out.instances, decl.loc, "instance", err):
        return
    schema = out.schemas.get(decl.schema_name)
    if schema is None:
        err(decl.loc, f"unknown schema '{decl.schema_name}'")
        return
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
        if item.name in schema.entity_types:
            rows = []
            for key, value in item.entries:
                if value is not None:
                    err(key.loc, f"carrier '{item.name}' cannot contain arrows")
                    ok = False
                    break
                if key.kind not in ("name", "str"):
                    err(key.loc, f"row id expected in carrier '{item.name}'")
                    ok = False
                    break
                rows.append(str(key.value))
            carriers[item.name] = rows
        elif item.name in schema.sig.operations:
            if schema.classify_op(item.name) == "builtin":
                err(item.loc,
                    f"operation '{item.name}' is builtin; its semantics are "
                    f"registered, not tabulated")
                ok = False
                continue
            cod = schema.sig.op_type(item.name)[1]
            table: dict[str, object] = {}
            for key, value in item.entries:
                if value is None:
                    err(key.loc, f"table '{item.name}' needs 'row -> value' entries")
                    ok = False
                    break
                if key.kind not in ("name", "str"):
                    err(key.loc, "row id expected on the left of ->")
                    ok = False
                    break
                cell = _resolve_cell(schema, cod, value, err)
                if cell is _BAD:
                    ok = False
                    break
                table[str(key.value)] = cell
            functions[item.name] = table
        else:
            err(item.loc,
                f"'{item.name}' is neither an entity type nor an operation "
                f"of schema '{decl.schema_name}'")
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


_BAD = object()


def _resolve_cell(schema: FqlSchema, cod: TypeExpr, value: RawValue, err):
    assert isinstance(cod, Base)
    if cod.name in schema.entity_types:
        if value.kind in ("name", "str"):
            return str(value.value)
        err(value.loc, f"row id of type {cod.name} expected")
        return _BAD
    if value.kind == "null":
        return LabelledNull(str(value.value))
    if value.kind == "app":
        return _resolve_application(schema, cod, value, err)
    if value.kind == "name":
        err(value.loc, f"'{value.value}' is not a {cod.name} literal")
        return _BAD
    if not schema.builtins.in_carrier(cod.name, value.value):
        err(value.loc, f"literal {print_raw_value(value)} is not a {cod.name}")
        return _BAD
    return value.value


def _resolve_application(schema: FqlSchema, cod: Base, value: RawValue, err):
    """A builtin of the schema applied to a null or to another such
    application, giving `cod`."""
    op, arg = value.value
    if op not in schema.sig.operations or schema.classify_op(op) != "builtin":
        err(value.loc, f"'{op}' is not a builtin operation of the schema")
        return _BAD
    dom, op_cod = schema.sig.op_type(op)
    if op_cod != cod:
        err(value.loc, f"'{op}' gives {format_type(op_cod)}, not {cod.name}")
        return _BAD
    if arg.kind not in ("null", "app"):
        err(arg.loc, f"the argument of '{op}' must be a null or a builtin "
                     f"application of one")
        return _BAD
    inner = _resolve_cell(schema, dom, arg, err)
    return _BAD if inner is _BAD else OpApplied(op, inner)


def _elab_mapping(decl: MappingDecl, out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, out.mappings, decl.loc, "mapping", err):
        return
    source = out.schemas.get(decl.source_name)
    target = out.schemas.get(decl.target_name)
    if source is None or target is None:
        missing = decl.source_name if source is None else decl.target_name
        err(decl.loc, f"unknown schema '{missing}'")
        return
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
    schema = out.schemas.get(decl.schema_name)
    if schema is None:
        err(decl.loc, f"unknown schema '{decl.schema_name}'")
        return
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


def _elab_expr(decl: ExprDecl, registry: BuiltinRegistry,
               out: Elaborated, err) -> None:
    if not _check_fresh(decl.name, out.exprs, decl.loc, "expr", err):
        return
    try:
        nrc_infer_type(builtin_signature(), Context(), decl.body)
    except EngineError as exc:
        err(decl.loc, f"expr '{decl.name}': {exc}")
        return
    out.exprs[decl.name] = decl.body


def _elab_migrate(decl: MigrateDecl, out: Elaborated, err, failure,
                  fuel: int, allow_unverified: bool) -> None:
    if not _check_fresh(decl.name, out.instances, decl.loc, "instance", err):
        return
    mapping = out.mappings.get(decl.mapping_name)
    if mapping is None:
        err(decl.loc, f"unknown mapping '{decl.mapping_name}'")
        return
    instance = out.instances.get(decl.instance_name)
    if instance is None:
        err(decl.loc, f"unknown instance '{decl.instance_name}'")
        return
    source_name, target_name = out.mapping_schemas[decl.mapping_name]
    on = out.instance_schema[decl.instance_name]
    expected = target_name if decl.direction == "delta" else source_name
    if on != expected:
        err(decl.loc,
            f"{decl.direction} along '{decl.mapping_name}' needs an instance "
            f"on '{expected}', but '{decl.instance_name}' is on '{on}'")
        return
    operation = {"delta": delta, "sigma": sigma, "pi": pi}[decl.direction]
    try:
        result = operation(mapping, instance, fuel=fuel,
                           allow_unverified=allow_unverified)
    except (FuelExhausted, InconsistentConstants, UnverifiedMapping,
            UnstatedNull) as exc:
        failure(decl.loc, f"migrate '{decl.name}': {exc}")
        return
    out.instances[decl.name] = result
    out.instance_schema[decl.name] = (
        source_name if decl.direction == "delta" else target_name)


# --------------------------------------------------------------------------
# Rebuilding surface declarations from semantic objects (for output files)

def _row_raw(row: str) -> RawValue:
    """Row ids that are not plain identifiers print quoted and reparse as
    strings, so build them with the kind the parser will produce."""
    if _IDENT_TEXT.fullmatch(row) and row not in KEYWORDS:
        return RawValue("name", row)
    return RawValue("str", row)


def instance_to_decl(name: str, schema_name: str, schema: FqlSchema,
                     instance: Instance) -> InstanceDecl:
    """Render a semantic instance as a declaration with deterministic
    ordering: carriers first, then tables, all sorted.  Each distinct row
    id is rendered once, however many cells name it."""
    rendered: dict[str, RawValue] = {}

    def row_raw(row: str) -> RawValue:
        raw = rendered.get(row)
        if raw is None:
            raw = rendered[row] = _row_raw(row)
        return raw

    items = []
    for t in sorted(schema.entity_types):
        entries = tuple((row_raw(row), None) for row in instance.rows(t))
        items.append(InstanceItem(t, entries))
    for op in schema.entity_dom_ops():
        cod = schema.sig.op_type(op)[1]
        assert isinstance(cod, Base)
        entity_cod = cod.name in schema.entity_types
        table = instance.functions.get(op, {})
        entries = [(row_raw(row), row_raw(str(table[row])) if entity_cod
                    else _cell_to_raw(table[row]))
                   for row in sorted(table)]
        items.append(InstanceItem(op, tuple(entries)))
    return InstanceDecl(name, schema_name, tuple(items))


def _cell_to_raw(cell: object) -> RawValue:
    if isinstance(cell, LabelledNull):
        return RawValue("null", cell.label)
    if isinstance(cell, OpApplied):
        return RawValue("app", (cell.op, _cell_to_raw(cell.arg)))
    if isinstance(cell, bool):
        return RawValue("bool", cell)
    if isinstance(cell, int):
        return RawValue("int", cell)
    return RawValue("str", cell)
