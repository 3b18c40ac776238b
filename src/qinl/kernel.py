"""Core typed term language: unit and binary-product types over declared base
types, unary operations, contexts, and syntax-directed type inference."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields


# The deepest nesting of terms, expressions and types the parser accepts.
# Every recursive walker over parsed trees (printing, substitution,
# evaluation, type inference, the e-graph) takes a few stack frames per
# level, and a parenthesised expression takes four in the parser itself, so
# this keeps all of them well inside Python's default recursion limit.
MAX_NESTING = 100


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class UnboundVariable(EngineError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class UnknownOperation(EngineError):
    def __init__(self, name: str):
        super().__init__(f"unknown operation '{name}'")
        self.name = name


class UnknownBaseType(EngineError):
    def __init__(self, name: str):
        super().__init__(f"unknown base type '{name}'")
        self.name = name


class TypeMismatch(EngineError):
    def __init__(self, expected: str, found: str, at: Term | None = None):
        where = f" at {format_term(at)}" if at is not None else ""
        super().__init__(f"expected {expected}, found {found}{where}")
        self.expected = expected
        self.found = found
        self.at = at


# --------------------------------------------------------------------------
# Types

class TypeExpr:
    """A type: Unit, a binary product, or a named base type."""

    __slots__ = ()


@dataclass(frozen=True)
class Unit(TypeExpr):
    __slots__ = ()


@dataclass(frozen=True)
class Prod(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Base(TypeExpr):
    name: str


UNIT = Unit()


def base_names(t: TypeExpr) -> Iterator[str]:
    """All base-type names mentioned in a type, including inside extension
    constructors (anything whose dataclass fields contain nested types)."""
    if isinstance(t, Base):
        yield t.name
        return
    for f in fields(t):  # type: ignore[arg-type]
        v = getattr(t, f.name)
        if isinstance(v, TypeExpr):
            yield from base_names(v)


def format_type(t: TypeExpr) -> str:
    if isinstance(t, Unit):
        return "1"
    if isinstance(t, Base):
        return t.name
    if isinstance(t, Prod):
        return f"{_type_factor(t.left)} * {_type_factor(t.right)}"
    # Extension constructors (the set layer) render themselves via __str__.
    return str(t)


def _type_factor(t: TypeExpr) -> str:
    s = format_type(t)
    return f"({s})" if isinstance(t, Prod) else s


# --------------------------------------------------------------------------
# Terms

class Term:
    """A term: variable, unit, pair, projection, operation application, or a
    constant literal of a base type carrying builtin values."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class UnitTerm(Term):
    __slots__ = ()


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Proj1(Term):
    of: Term


@dataclass(frozen=True)
class Proj2(Term):
    of: Term


@dataclass(frozen=True)
class App(Term):
    op: str
    arg: Term


@dataclass(frozen=True)
class Lit(Term):
    base: str
    value: object  # int, str, or bool


UNIT_TERM = UnitTerm()


def format_term(e: Term) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, UnitTerm):
        return "()"
    if isinstance(e, Pair):
        return f"({format_term(e.fst)}, {format_term(e.snd)})"
    if isinstance(e, Proj1):
        return f"{format_term(e.of)}.1"
    if isinstance(e, Proj2):
        return f"{format_term(e.of)}.2"
    if isinstance(e, App):
        return f"{e.op}({format_term(e.arg)})"
    if isinstance(e, Lit):
        return format_literal(e.value)
    return str(e)


def format_literal(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    return str(v)


def term_size(e: Term) -> int:
    if isinstance(e, (Var, UnitTerm, Lit)):
        return 1
    if isinstance(e, Pair):
        return 1 + term_size(e.fst) + term_size(e.snd)
    if isinstance(e, (Proj1, Proj2)):
        return 1 + term_size(e.of)
    if isinstance(e, App):
        return 1 + term_size(e.arg)
    return 1


def term_key(e: Term) -> tuple[int, str]:
    """Total order used to pick canonical representatives: size, then text."""
    return (term_size(e), format_term(e))


def subterms(e: Term) -> Iterator[Term]:
    yield e
    if isinstance(e, Pair):
        yield from subterms(e.fst)
        yield from subterms(e.snd)
    elif isinstance(e, (Proj1, Proj2)):
        yield from subterms(e.of)
    elif isinstance(e, App):
        yield from subterms(e.arg)


# --------------------------------------------------------------------------
# Contexts and signatures

@dataclass(frozen=True)
class Context:
    """An ordered list of variable bindings; lookup takes the rightmost
    binding of a name, so shadowing is permitted."""

    bindings: tuple[tuple[str, TypeExpr], ...] = ()
    _types: dict[str, TypeExpr] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        # Later pairs overwrite earlier ones, so the rightmost binding wins.
        self._types.update(self.bindings)

    @classmethod
    def of(cls, *pairs: tuple[str, TypeExpr]) -> Context:
        return cls(tuple(pairs))

    def extend(self, name: str, t: TypeExpr) -> Context:
        return Context(self.bindings + ((name, t),))

    def lookup(self, name: str) -> TypeExpr | None:
        return self._types.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(var for var, _ in self.bindings)

    def __iter__(self) -> Iterator[tuple[str, TypeExpr]]:
        return iter(self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)


@dataclass(frozen=True)
class Signature:
    """Declared base types plus unary operations between types.

    Multi-argument operations are encoded with product domains.
    """

    base_types: frozenset[str]
    operations: Mapping[str, tuple[TypeExpr, TypeExpr]]

    @classmethod
    def of(cls, base_types: Iterator[str] | list[str] | set[str],
           operations: Mapping[str, tuple[TypeExpr, TypeExpr]]) -> Signature:
        return cls(frozenset(base_types), dict(operations))

    def op_type(self, name: str) -> tuple[TypeExpr, TypeExpr]:
        try:
            return self.operations[name]
        except KeyError:
            raise UnknownOperation(name) from None

    def check_type(self, t: TypeExpr) -> None:
        for name in base_names(t):
            if name not in self.base_types:
                raise UnknownBaseType(name)


def check_context(sig: Signature, ctx: Context) -> None:
    """Every bound type may mention only declared base types."""
    for _, t in ctx:
        sig.check_type(t)


# --------------------------------------------------------------------------
# Typing and substitution

def infer_type(sig: Signature, ctx: Context, e: Term,
               extension=None) -> TypeExpr:
    """Infer the unique type of a term, or raise.

    Inference is syntax-directed: variables read the rightmost context
    binding, pairs type componentwise, projections demand a product, and an
    application demands the operation's declared domain.  `extension` lets a
    richer language layer handle constructors this core does not know.
    """

    def recurse(c: Context, t: Term) -> TypeExpr:
        return infer_type(sig, c, t, extension)

    if isinstance(e, Var):
        t = ctx.lookup(e.name)
        if t is None:
            raise UnboundVariable(e.name)
        return t
    if isinstance(e, UnitTerm):
        return UNIT
    if isinstance(e, Lit):
        if e.base not in sig.base_types:
            raise UnknownBaseType(e.base)
        return Base(e.base)
    if isinstance(e, Pair):
        return Prod(recurse(ctx, e.fst), recurse(ctx, e.snd))
    if isinstance(e, Proj1):
        t = recurse(ctx, e.of)
        if not isinstance(t, Prod):
            raise TypeMismatch("a product type", format_type(t), e)
        return t.left
    if isinstance(e, Proj2):
        t = recurse(ctx, e.of)
        if not isinstance(t, Prod):
            raise TypeMismatch("a product type", format_type(t), e)
        return t.right
    if isinstance(e, App):
        dom, cod = sig.op_type(e.op)
        targ = recurse(ctx, e.arg)
        if targ != dom:
            raise TypeMismatch(format_type(dom), format_type(targ), e)
        return cod
    if extension is not None:
        return extension(sig, ctx, e, recurse)
    raise EngineError(f"cannot type unknown construct {e!r}")


def substitute(e: Term, var: str, replacement: Term) -> Term:
    """Replace every occurrence of a variable; terms have no binders, so
    this is plain tree replacement."""
    return substitute_many(e, {var: replacement})


def substitute_many(e: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, (UnitTerm, Lit)):
        return e
    if isinstance(e, Pair):
        return Pair(substitute_many(e.fst, mapping),
                    substitute_many(e.snd, mapping))
    if isinstance(e, Proj1):
        return Proj1(substitute_many(e.of, mapping))
    if isinstance(e, Proj2):
        return Proj2(substitute_many(e.of, mapping))
    if isinstance(e, App):
        return App(e.op, substitute_many(e.arg, mapping))
    return e
