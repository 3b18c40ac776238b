"""Nested relational calculus layer: the syntax of set types and
set-calculus expressions over the core term language, with conditionals and
equality tests over the registry's `Bool` base type; their typing rules and
printer; and the standard relational combinators (projection, cartesian
product, selection).  Expressions are evaluated by `schema.eval_term`, to
cells."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

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
    TypeMismatch,
    UnitTerm,
    Var,
    format_term,
    format_type,
    infer_type,
)


class NonSetIteration(TypeMismatch):
    pass


class BranchTypeMismatch(TypeMismatch):
    pass


class EqTypeMismatch(TypeMismatch):
    pass


class UninterpretedOperation(EngineError):
    def __init__(self, name: str):
        super().__init__(f"operation '{name}' has no registered semantics")
        self.name = name


# --------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class SetT(TypeExpr):
    elem: TypeExpr

    def __str__(self) -> str:
        """`Set` takes a type atom: only a product operand is bracketed, so
        `Set Set Int` prints as it reads."""
        inner = format_type(self.elem)
        return f"Set ({inner})" if isinstance(self.elem, Prod) else f"Set {inner}"


BOOL = Base("Bool")


# --------------------------------------------------------------------------
# Expressions

class SetExpr(Term):
    """A set-calculus construct; it prints as the expression text."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_nrc(self)


@dataclass(frozen=True)
class Empty(SetExpr):
    elem: TypeExpr  # the element-type annotation the empty set carries


@dataclass(frozen=True)
class Union(SetExpr):
    left: Term
    right: Term


@dataclass(frozen=True)
class Singleton(SetExpr):
    elem: Term


@dataclass(frozen=True)
class For(SetExpr):
    var: str
    source: Term
    body: Term  # var is bound in body only


@dataclass(frozen=True)
class If(SetExpr):
    cond: Term
    then: Term
    els: Term


@dataclass(frozen=True)
class EqTest(SetExpr):
    left: Term
    right: Term


TRUE = Lit("Bool", True)
FALSE = Lit("Bool", False)


# --------------------------------------------------------------------------
# Typing

def nrc_infer_type(sig: Signature, ctx: Context, e: Term) -> TypeExpr:
    """The core typing rules extended with empty set, union, singleton,
    iteration, conditionals, and equality tests."""
    return infer_type(sig, ctx, e, extension=_nrc_rules)


def _nrc_rules(sig: Signature, ctx: Context, e: Term, recurse) -> TypeExpr:
    if isinstance(e, Empty):
        sig.check_type(e.elem)
        return SetT(e.elem)
    if isinstance(e, Union):
        tl = recurse(ctx, e.left)
        tr = recurse(ctx, e.right)
        if not isinstance(tl, SetT):
            raise TypeMismatch("a set type", format_type(tl), e)
        if tl != tr:
            raise TypeMismatch(format_type(tl), format_type(tr), e)
        return tl
    if isinstance(e, Singleton):
        return SetT(recurse(ctx, e.elem))
    if isinstance(e, For):
        ts = recurse(ctx, e.source)
        if not isinstance(ts, SetT):
            raise NonSetIteration("a set type", format_type(ts), e)
        tb = recurse(ctx.extend(e.var, ts.elem), e.body)
        if not isinstance(tb, SetT):
            raise NonSetIteration("a set-typed body", format_type(tb), e)
        return tb
    if isinstance(e, If):
        tc = recurse(ctx, e.cond)
        if tc != BOOL:
            raise TypeMismatch("Bool", format_type(tc), e)
        tt = recurse(ctx, e.then)
        te = recurse(ctx, e.els)
        if tt != te:
            raise BranchTypeMismatch(format_type(tt), format_type(te), e)
        return tt
    if isinstance(e, EqTest):
        tl = recurse(ctx, e.left)
        tr = recurse(ctx, e.right)
        if tl != tr:
            raise EqTypeMismatch(format_type(tl), format_type(tr), e)
        return BOOL
    raise EngineError(f"cannot type unknown construct {e!r}")


# --------------------------------------------------------------------------
# Printing

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
    if isinstance(e, Pair):
        # A right-nested chain is one tuple, as the parser builds it.
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


# --------------------------------------------------------------------------
# The relational combinator library

def relational_library() -> dict[str, Callable[[TypeExpr, TypeExpr], tuple[Context, Term]]]:
    """Named open expressions for the classic relational operations, each
    parameterized by element types and binding the relation to variable I."""

    def project1(t1: TypeExpr, t2: TypeExpr) -> tuple[Context, Term]:
        ctx = Context.of(("I", SetT(Prod(t1, t2))))
        return ctx, For("x", Var("I"), Singleton(Proj1(Var("x"))))

    def product(t1: TypeExpr, t2: TypeExpr) -> tuple[Context, Term]:
        ctx = Context.of(("I", Prod(SetT(t1), SetT(t2))))
        body = For("x1", Proj1(Var("I")),
                   For("x2", Proj2(Var("I")),
                       Singleton(Pair(Var("x1"), Var("x2")))))
        return ctx, body

    def select_eq(t1: TypeExpr, t2: TypeExpr) -> tuple[Context, Term]:
        ctx = Context.of(("I", SetT(Prod(t1, t2))))
        body = For("x", Var("I"),
                   If(EqTest(Proj1(Var("x")), Proj2(Var("x"))),
                      Singleton(Var("x")),
                      Empty(Prod(t1, t2))))
        return ctx, body

    return {"project1": project1, "product": product, "select-eq": select_eq}
