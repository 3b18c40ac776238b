"""Nested relational calculus layer: set types over the core term language,
conditionals and equality tests over the registry's `Bool` base type, a
big-step set-semantics evaluator, and the standard relational combinators
(projection, cartesian product, selection)."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
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
    UNIT,
    UnboundVariable,
    UnitTerm,
    Var,
    format_literal,
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
        inner = format_type(self.elem)
        if isinstance(self.elem, Base) or self.elem == UNIT:
            return f"Set {inner}"
        return f"Set ({inner})"


BOOL = Base("Bool")


# --------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class Empty(Term):
    elem: TypeExpr  # the element-type annotation the empty set carries


@dataclass(frozen=True)
class Union(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Singleton(Term):
    elem: Term


@dataclass(frozen=True)
class For(Term):
    var: str
    source: Term
    body: Term  # var is bound in body only


@dataclass(frozen=True)
class If(Term):
    cond: Term
    then: Term
    els: Term


@dataclass(frozen=True)
class EqTest(Term):
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
# Values

class Value:
    """A finite denotation.  Sets are deduplicated and kept in a canonical
    order so structural equality and printing are deterministic."""

    __slots__ = ()


@dataclass(frozen=True)
class UnitV(Value):
    __slots__ = ()


@dataclass(frozen=True)
class PairV(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True)
class BaseV(Value):
    base: str
    constant: object


@dataclass(frozen=True)
class SetV(Value):
    elem: TypeExpr
    members: tuple[Value, ...]  # deduplicated, sorted by value_key


UNIT_V = UnitV()


def _constant_key(c: object) -> tuple:
    if isinstance(c, bool):
        return (0, c)
    if isinstance(c, int):
        return (1, c)
    if isinstance(c, str):
        return (2, c)
    return (3, str(c))  # labelled nulls and symbolic values sort by rendering


def value_key(v: Value) -> tuple:
    if isinstance(v, UnitV):
        return (0,)
    if isinstance(v, BaseV):
        return (1, v.base, _constant_key(v.constant))
    if isinstance(v, PairV):
        return (2, value_key(v.fst), value_key(v.snd))
    if isinstance(v, SetV):
        return (3, tuple(value_key(m) for m in v.members))
    raise EngineError(f"not a value: {v!r}")


def value_type(v: Value) -> TypeExpr:
    if isinstance(v, UnitV):
        return UNIT
    if isinstance(v, BaseV):
        return Base(v.base)
    if isinstance(v, PairV):
        return Prod(value_type(v.fst), value_type(v.snd))
    if isinstance(v, SetV):
        return SetT(v.elem)
    raise EngineError(f"not a value: {v!r}")


def make_set(elem: TypeExpr, values: Iterable[Value]) -> SetV:
    unique = {value_key(v): v for v in values}
    return SetV(elem, tuple(unique[k] for k in sorted(unique)))


def format_value(v: Value) -> str:
    if isinstance(v, UnitV):
        return "()"
    if isinstance(v, BaseV):
        return format_literal(v.constant) if isinstance(v.constant, (bool, int, str)) \
            else str(v.constant)
    if isinstance(v, PairV):
        return f"({format_value(v.fst)}, {format_value(v.snd)})"
    if isinstance(v, SetV):
        return "{" + ", ".join(format_value(m) for m in v.members) + "}"
    return str(v)


# --------------------------------------------------------------------------
# Evaluation

Interpretations = Mapping[str, Callable[[Value], Value]]


def nrc_eval(sig: Signature, e: Term, env: Mapping[str, Value],
             ops: Interpretations) -> Value:
    """Evaluate a well-typed expression under an environment.

    Operation symbols evaluate through `ops`; using one without a registered
    interpretation raises `UninterpretedOperation`.  Iterating an empty set
    still produces an empty set of the body's element type, so the signature
    is needed for typing the body in that case.
    """
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, UnitTerm):
        return UNIT_V
    if isinstance(e, Lit):
        return BaseV(e.base, e.value)
    if isinstance(e, Pair):
        return PairV(nrc_eval(sig, e.fst, env, ops),
                     nrc_eval(sig, e.snd, env, ops))
    if isinstance(e, Proj1):
        v = nrc_eval(sig, e.of, env, ops)
        assert isinstance(v, PairV)
        return v.fst
    if isinstance(e, Proj2):
        v = nrc_eval(sig, e.of, env, ops)
        assert isinstance(v, PairV)
        return v.snd
    if isinstance(e, App):
        if e.op not in ops:
            raise UninterpretedOperation(e.op)
        return ops[e.op](nrc_eval(sig, e.arg, env, ops))
    if isinstance(e, Empty):
        return SetV(e.elem, ())
    if isinstance(e, Union):
        left = nrc_eval(sig, e.left, env, ops)
        right = nrc_eval(sig, e.right, env, ops)
        assert isinstance(left, SetV) and isinstance(right, SetV)
        return make_set(left.elem, left.members + right.members)
    if isinstance(e, Singleton):
        v = nrc_eval(sig, e.elem, env, ops)
        return SetV(value_type(v), (v,))
    if isinstance(e, If):
        cond = nrc_eval(sig, e.cond, env, ops)
        assert isinstance(cond, BaseV)
        return nrc_eval(sig, e.then if cond.constant else e.els, env, ops)
    if isinstance(e, EqTest):
        return BaseV("Bool", nrc_eval(sig, e.left, env, ops)
                     == nrc_eval(sig, e.right, env, ops))
    if isinstance(e, For):
        source = nrc_eval(sig, e.source, env, ops)
        assert isinstance(source, SetV)
        if not source.members:
            ctx = _context_of(env).extend(e.var, source.elem)
            body_type = nrc_infer_type(sig, ctx, e.body)
            assert isinstance(body_type, SetT)
            return SetV(body_type.elem, ())
        collected: list[Value] = []
        elem: TypeExpr | None = None
        for member in source.members:
            inner = dict(env)
            inner[e.var] = member
            result = nrc_eval(sig, e.body, inner, ops)
            assert isinstance(result, SetV)
            elem = result.elem
            collected.extend(result.members)
        assert elem is not None
        return make_set(elem, collected)
    raise EngineError(f"cannot evaluate unknown construct {e!r}")


def _context_of(env: Mapping[str, Value]) -> Context:
    return Context(tuple((name, value_type(v)) for name, v in sorted(env.items())))


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
