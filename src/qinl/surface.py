"""Concrete text syntax for schemas, instances, mappings, comprehension
queries, set-calculus expressions, and migrate directives, with a canonical
pretty-printer satisfying parse(print(ast)) == ast, plus elaboration of
parsed units into semantic objects.

Files use the `.qinl` extension; comments run from `--` to end of line.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .chase import FuelExhausted
from .equality import Equation, Theory, check_theory
from .kernel import (
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
from .migration import UnverifiedMapping, delta, pi, sigma
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

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CHARS = _IDENT_START | set("0123456789_")
_PUNCT2 = ("->", "=>")
_PUNCT1 = set("{}()[],;:.*=")

# The deepest nesting of terms, expressions and types the parser accepts.
# Every recursive walker over parsed trees (printing, substitution,
# evaluation, type inference, the e-graph) takes a few stack frames per
# level, and a parenthesised expression takes four in the parser itself, so
# this keeps all of them well inside Python's default recursion limit.
MAX_NESTING = 100


class ParseError(EngineError):
    def __init__(self, message: str, line: int, col: int,
                 expected: str | None = None):
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")
        self.line = line
        self.col = col
        self.expected = expected


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | int | string | null | punct | eof
    text: str
    value: object
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    n = len(source)

    def advance(count: int) -> None:
        nonlocal line, col, pos
        for _ in range(count):
            if source[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    while pos < n:
        c = source[pos]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("--", pos):
            while pos < n and source[pos] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if c in _IDENT_START:
            end = pos
            while end < n and source[end] in _IDENT_CHARS:
                end += 1
            word = source[pos:end]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, word, start_line, start_col))
            advance(end - pos)
            continue
        if c.isdecimal() or (c == "-" and pos + 1 < n and source[pos + 1].isdecimal()
                           and not source.startswith("->", pos)):
            end = pos + 1
            while end < n and source[end].isdecimal():
                end += 1
            text = source[pos:end]
            tokens.append(Token("int", text, int(text), start_line, start_col))
            advance(end - pos)
            continue
        if c == '"':
            value, end = _scan_string(source, pos, start_line, start_col)
            tokens.append(Token("string", source[pos:end], value,
                                start_line, start_col))
            advance(end - pos)
            continue
        if c == "?":
            end = pos + 1
            while end < n and source[end] in _IDENT_CHARS:
                end += 1
            if end == pos + 1:
                raise ParseError("lone '?'", start_line, start_col,
                                 "a null label like ?0")
            tokens.append(Token("null", source[pos:end], source[pos + 1:end],
                                start_line, start_col))
            advance(end - pos)
            continue
        if source[pos:pos + 2] in _PUNCT2:
            tokens.append(Token("punct", source[pos:pos + 2], None,
                                start_line, start_col))
            advance(2)
            continue
        if c in _PUNCT1:
            tokens.append(Token("punct", c, None, start_line, start_col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {c!r}", start_line, start_col)
    tokens.append(Token("eof", "", None, line, col))
    return tokens


def _scan_string(source: str, pos: int, line: int, col: int) -> tuple[str, int]:
    out = []
    i = pos + 1
    while i < len(source):
        c = source[i]
        if c == '"':
            return "".join(out), i + 1
        if c == "\n":
            break
        if c == "\\":
            if i + 1 >= len(source):
                break
            esc = source[i + 1]
            mapped = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}.get(esc)
            if mapped is None:
                raise ParseError(f"bad escape '\\{esc}'", line, col)
            out.append(mapped)
            i += 2
            continue
        out.append(c)
        i += 1
    raise ParseError("unterminated string literal", line, col)


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
    kind: str  # name | str | int | bool | null
    value: object
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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # `depth` is the level of the node being parsed, `base` that of the
        # construct being parsed, and `peak` the deepest level the construct
        # has reached: a binary node built around it (a union, an equality
        # test, a projection, the pair of an application's arguments) pushes
        # all of it one level down.
        self.depth = self.base = self.peak = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, expected: str | None = None) -> ParseError:
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(f"{message}, found {found!r}", tok.line, tok.col,
                          expected)

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.text == word

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.fail("unexpected token", f"'{text}'")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.fail("unexpected token", f"'{word}'")
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
        while self.peek().kind != "eof":
            if self.accept_punct(";"):
                continue
            tok = self.peek()
            if self.accept_keyword("schema"):
                decls.append(self.schema_decl((tok.line, tok.col)))
            elif self.accept_keyword("instance"):
                decls.append(self.instance_decl((tok.line, tok.col)))
            elif self.accept_keyword("mapping"):
                decls.append(self.mapping_decl((tok.line, tok.col)))
            elif self.accept_keyword("query"):
                decls.append(self.query_decl((tok.line, tok.col)))
            elif self.accept_keyword("expr"):
                decls.append(self.expr_decl((tok.line, tok.col)))
            elif self.accept_keyword("migrate"):
                decls.append(self.migrate_decl((tok.line, tok.col)))
            else:
                raise self.fail("expected a declaration",
                                "schema/instance/mapping/query/expr/migrate")
        return SourceUnit(tuple(decls))

    # -- types ----------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        saved = self.begin(1)
        factors = [self.type_atom()]
        while self.accept_punct("*"):
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
        if self.accept_keyword("Bool"):
            return BOOL
        if self.accept_keyword("Set"):
            saved = self.begin(1)
            t = SetT(self.type_atom())
            self.end(saved)
            return t
        if tok.kind == "ident":
            self.next()
            return Base(tok.text)
        if self.accept_punct("("):
            t = self.type_expr()
            self.expect_punct(")")
            return t
        raise self.fail("expected a type", "1, Bool, Set T, a base type, or (")

    # -- core terms -------------------------------------------------------------

    def term(self) -> Term:
        saved = self.begin(1)
        t = self.term_atom()
        while self.at_punct("."):
            self.wrap()
            t = self._projection(t)
        self.end(saved)
        return t

    def _pairs(self, item: Callable[[], Term], wrap_first: bool = False) -> Term:
        """Comma-separated items up to ')', nested to the right in pairs.
        With `wrap_first` the pairs sit one level below the node being
        parsed (an application's arguments), so a comma moves the first item
        under them."""
        saved = self.begin(0)
        parts = [item()]
        while self.accept_punct(","):
            if wrap_first and len(parts) == 1:
                self.wrap()
            self.down()
            parts.append(item())
        self.expect_punct(")")
        self.end(saved)
        return _nest_pairs(parts)

    def _projection(self, t: Term) -> Term:
        self.expect_punct(".")
        tok = self.peek()
        if tok.kind != "int" or tok.value not in (1, 2):
            raise self.fail("bad projection", ".1 or .2")
        self.next()
        return Proj1(t) if tok.value == 1 else Proj2(t)

    def term_atom(self) -> Term:
        tok = self.peek()
        if self.accept_punct("("):
            if self.accept_punct(")"):
                return UNIT_TERM
            return self._pairs(self.term)
        if tok.kind == "string":
            self.next()
            return Lit("String", tok.value)
        if tok.kind == "int":
            self.next()
            return Lit("Int", tok.value)
        if self.accept_keyword("true"):
            return Lit("Bool", True)
        if self.accept_keyword("false"):
            return Lit("Bool", False)
        if tok.kind == "ident":
            self.next()
            if self.accept_punct("("):
                if self.accept_punct(")"):
                    return App(tok.text, UNIT_TERM)
                return App(tok.text, self._pairs(self.term, wrap_first=True))
            return Var(tok.text)
        raise self.fail("expected a term")

    # -- set-calculus expressions -------------------------------------------------

    def nrc_expr(self) -> Term:
        saved = self.begin(1)
        e = self.nrc_union()
        if self.accept_punct("="):
            self.wrap()
            e = EqTest(e, self.nrc_union())
        self.end(saved)
        return e

    def nrc_union(self) -> Term:
        saved = self.begin(0)
        e = self.nrc_postfix()
        while self.accept_keyword("union"):
            self.wrap()
            e = Union(e, self.nrc_postfix())
        self.end(saved)
        return e

    def nrc_postfix(self) -> Term:
        saved = self.begin(0)
        e = self.nrc_atom()
        while self.at_punct("."):
            self.wrap()
            e = self._projection(e)
        self.end(saved)
        return e

    def nrc_atom(self) -> Term:
        tok = self.peek()
        if self.accept_punct("("):
            if self.accept_punct(")"):
                return UNIT_TERM
            return self._pairs(self.nrc_expr)
        if self.accept_punct("{"):
            e = self.nrc_expr()
            self.expect_punct("}")
            return Singleton(e)
        if self.accept_keyword("empty"):
            self.expect_punct("[")
            t = self.type_expr()
            self.expect_punct("]")
            return Empty(t)
        if self.accept_keyword("true"):
            return TRUE
        if self.accept_keyword("false"):
            return FALSE
        if self.accept_keyword("if"):
            cond = self.nrc_expr()
            self.expect_keyword("then")
            then = self.nrc_expr()
            self.expect_keyword("else")
            return If(cond, then, self.nrc_expr())
        if self.accept_keyword("for"):
            var = self.expect_ident("an iteration variable").text
            self.expect_keyword("in")
            source = self.nrc_expr()
            self.expect_keyword("return")
            return For(var, source, self.nrc_expr())
        if tok.kind == "string":
            self.next()
            return Lit("String", tok.value)
        if tok.kind == "int":
            self.next()
            return Lit("Int", tok.value)
        if tok.kind == "ident":
            self.next()
            if self.accept_punct("("):
                if self.accept_punct(")"):
                    return App(tok.text, UNIT_TERM)
                return App(tok.text, self._pairs(self.nrc_expr, wrap_first=True))
            return Var(tok.text)
        raise self.fail("expected an expression")

    # -- declarations ---------------------------------------------------------

    def schema_decl(self, loc: Loc) -> SchemaDecl:
        name = self.expect_ident("a schema name").text
        self.expect_punct("=")
        self.expect_punct("{")
        entities: tuple[str, ...] = ()
        attributes: tuple[str, ...] = ()
        operations: tuple[OpDecl, ...] = ()
        equations: list[EquationDecl] = []
        seen: set[str] = set()
        while not self.at_punct("}"):
            tok = self.peek()
            section = tok.text
            if section in seen:
                raise self.fail(f"duplicate section '{section}'")
            if self.accept_keyword("entities"):
                entities = self._name_list()
                self.expect_punct(";")
            elif self.accept_keyword("attributes"):
                attributes = self._name_list()
                self.expect_punct(";")
            elif self.accept_keyword("operations"):
                ops = [self._op_decl()]
                while self.accept_punct(","):
                    ops.append(self._op_decl())
                self.expect_punct(";")
                operations = tuple(ops)
            elif self.accept_keyword("equations"):
                while not self.at_punct("}"):
                    equations.append(self._equation_decl())
                    self.expect_punct(";")
            else:
                raise self.fail(
                    "expected a schema section",
                    "entities, attributes, operations, or equations")
            seen.add(section)
        self.expect_punct("}")
        return SchemaDecl(name, entities, attributes, operations,
                          tuple(equations), loc)

    def _name_list(self) -> tuple[str, ...]:
        names = [self.expect_ident("a type name").text]
        while self.accept_punct(","):
            names.append(self.expect_ident("a type name").text)
        return tuple(names)

    def _op_decl(self) -> OpDecl:
        tok = self.expect_ident("an operation name")
        self.expect_punct(":")
        dom = self.type_expr()
        self.expect_punct("->")
        cod = self.type_expr()
        return OpDecl(tok.text, dom, cod, (tok.line, tok.col))

    def _equation_decl(self) -> EquationDecl:
        tok = self.peek()
        ctx: list[tuple[str, TypeExpr]] = []
        if self.accept_keyword("forall"):
            ctx.append(self._binding())
            while self.accept_punct(","):
                ctx.append(self._binding())
            self.expect_punct(".")
        lhs = self.term()
        self.expect_punct("=")
        rhs = self.term()
        return EquationDecl(tuple(ctx), lhs, rhs, (tok.line, tok.col))

    def _binding(self) -> tuple[str, TypeExpr]:
        name = self.expect_ident("a variable").text
        self.expect_punct(":")
        return name, self.type_expr()

    def instance_decl(self, loc: Loc) -> InstanceDecl:
        name = self.expect_ident("an instance name").text
        self.expect_punct(":")
        schema_name = self.expect_ident("a schema name").text
        self.expect_punct("=")
        self.expect_punct("{")
        items = []
        while not self.at_punct("}"):
            items.append(self._instance_item())
        self.expect_punct("}")
        return InstanceDecl(name, schema_name, tuple(items), loc)

    def _instance_item(self) -> InstanceItem:
        tok = self.expect_ident("a type or operation name")
        self.expect_punct("=")
        self.expect_punct("{")
        entries: list[tuple[RawValue, RawValue | None]] = []
        if not self.at_punct("}"):
            entries.append(self._instance_entry())
            while self.accept_punct(","):
                entries.append(self._instance_entry())
        self.expect_punct("}")
        self.expect_punct(";")
        kinds = {entry[1] is None for entry in entries}
        if len(kinds) > 1:
            raise ParseError(f"item '{tok.text}' mixes rows and arrows",
                             tok.line, tok.col)
        return InstanceItem(tok.text, tuple(entries), (tok.line, tok.col))

    def _instance_entry(self) -> tuple[RawValue, RawValue | None]:
        key = self._raw_value()
        if self.accept_punct("->"):
            return key, self._raw_value()
        return key, None

    def _raw_value(self) -> RawValue:
        tok = self.peek()
        loc = (tok.line, tok.col)
        if tok.kind == "ident":
            self.next()
            return RawValue("name", tok.text, loc)
        if tok.kind == "string":
            self.next()
            return RawValue("str", tok.value, loc)
        if tok.kind == "int":
            self.next()
            return RawValue("int", tok.value, loc)
        if tok.kind == "null":
            self.next()
            return RawValue("null", tok.value, loc)
        if self.accept_keyword("true"):
            return RawValue("bool", True, loc)
        if self.accept_keyword("false"):
            return RawValue("bool", False, loc)
        raise self.fail("expected a row id, literal, or null")

    def mapping_decl(self, loc: Loc) -> MappingDecl:
        name = self.expect_ident("a mapping name").text
        self.expect_punct(":")
        source = self.expect_ident("a schema name").text
        self.expect_punct("->")
        target = self.expect_ident("a schema name").text
        self.expect_punct("=")
        self.expect_punct("{")
        type_entries: list[TypeEntry] = []
        op_entries: list[OpEntry] = []
        while not self.at_punct("}"):
            tok = self.expect_ident("a type or operation name")
            self.expect_punct("->")
            if self.at_punct("("):
                self.expect_punct("(")
                var = self.expect_ident("a bound variable").text
                self.expect_punct("=>")
                body = self.term()
                self.expect_punct(")")
                op_entries.append(OpEntry(tok.text, var, body,
                                          (tok.line, tok.col)))
            else:
                target_name = self.expect_ident("a target type").text
                type_entries.append(TypeEntry(tok.text, target_name,
                                              (tok.line, tok.col)))
            self.expect_punct(";")
        self.expect_punct("}")
        return MappingDecl(name, source, target, tuple(type_entries),
                           tuple(op_entries), loc)

    def query_decl(self, loc: Loc) -> QueryDecl:
        name = self.expect_ident("a query name").text
        self.expect_punct(":")
        schema_name = self.expect_ident("a schema name").text
        self.expect_punct("=")
        self.expect_keyword("for")
        bindings = [self._query_binding()]
        while self.accept_punct(","):
            bindings.append(self._query_binding())
        wheres: list[WhereClause] = []
        if self.accept_keyword("where"):
            wheres.append(self._where_clause())
            while self.accept_keyword("and"):
                wheres.append(self._where_clause())
        self.expect_keyword("return")
        returns = self.term()
        return QueryDecl(name, schema_name, tuple(bindings), tuple(wheres),
                         returns, loc)

    def _query_binding(self) -> QueryBinding:
        tok = self.expect_ident("a binding variable")
        self.expect_punct(":")
        entity = self.expect_ident("an entity type").text
        return QueryBinding(tok.text, entity, (tok.line, tok.col))

    def _where_clause(self) -> WhereClause:
        tok = self.peek()
        lhs = self.term()
        self.expect_punct("=")
        rhs = self.term()
        return WhereClause(lhs, rhs, (tok.line, tok.col))

    def expr_decl(self, loc: Loc) -> ExprDecl:
        name = self.expect_ident("an expression name").text
        self.expect_punct("=")
        return ExprDecl(name, self.nrc_expr(), loc)

    def migrate_decl(self, loc: Loc) -> MigrateDecl:
        name = self.expect_ident("a result name").text
        self.expect_punct("=")
        tok = self.peek()
        for direction in ("delta", "sigma", "pi"):
            if self.accept_keyword(direction):
                mapping_name = self.expect_ident("a mapping name").text
                instance_name = self.expect_ident("an instance name").text
                return MigrateDecl(name, direction, mapping_name,
                                   instance_name, loc)
        raise ParseError("expected a migration direction", tok.line, tok.col,
                         "delta, sigma, or pi")


def _nest_pairs(parts: list[Term]) -> Term:
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Pair(part, result)
    return result


def parse(text: str) -> SourceUnit:
    return _Parser(tokenize(text)).unit()


# --------------------------------------------------------------------------
# Printer

_IDENT_OK = _IDENT_START


def _print_row_id(row: str) -> str:
    if row and row[0] in _IDENT_START and all(c in _IDENT_CHARS for c in row) \
            and row not in KEYWORDS:
        return row
    return format_literal(row)


def print_raw_value(v: RawValue) -> str:
    if v.kind == "name":
        return _print_row_id(str(v.value))
    if v.kind == "null":
        return f"?{v.value}"
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
        return f"({print_nrc(e.fst)}, {print_nrc(e.snd)})"
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
    if value.kind == "name":
        err(value.loc, f"'{value.value}' is not a {cod.name} literal")
        return _BAD
    carrier = schema.builtins.carriers.get(cod.name)
    python_value = value.value
    if carrier is bool:
        ok = isinstance(python_value, bool)
    elif carrier is None:
        ok = False
    else:
        ok = isinstance(python_value, carrier) and not isinstance(python_value, bool)
    if not ok:
        err(value.loc, f"literal {print_raw_value(value)} is not a {cod.name}")
        return _BAD
    return python_value


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
    except (FuelExhausted, UnverifiedMapping) as exc:
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
    if row and row[0] in _IDENT_START and all(c in _IDENT_CHARS for c in row) \
            and row not in KEYWORDS:
        return RawValue("name", row)
    return RawValue("str", row)


def instance_to_decl(name: str, schema_name: str, schema: FqlSchema,
                     instance: Instance) -> InstanceDecl:
    """Render a semantic instance as a declaration with deterministic
    ordering: carriers first, then tables, all sorted."""
    items = []
    for t in sorted(schema.entity_types):
        entries = tuple((_row_raw(row), None) for row in instance.rows(t))
        items.append(InstanceItem(t, entries))
    for op in schema.entity_dom_ops():
        cod = schema.sig.op_type(op)[1]
        assert isinstance(cod, Base)
        entity_cod = cod.name in schema.entity_types
        entries = []
        table = instance.functions.get(op, {})
        for row in sorted(table):
            entries.append((_row_raw(row),
                            _cell_to_raw(table[row], entity_cod)))
        items.append(InstanceItem(op, tuple(entries)))
    return InstanceDecl(name, schema_name, tuple(items))


def _cell_to_raw(cell: object, entity_cod: bool) -> RawValue:
    if entity_cod:
        return _row_raw(str(cell))
    if isinstance(cell, LabelledNull):
        return RawValue("null", cell.label)
    if isinstance(cell, bool):
        return RawValue("bool", cell)
    if isinstance(cell, int):
        return RawValue("int", cell)
    if isinstance(cell, str):
        return RawValue("str", cell)
    raise EngineError(
        f"cell {cell!r} is symbolic and has no textual instance form")
