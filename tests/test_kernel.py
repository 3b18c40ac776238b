from __future__ import annotations

import random

import pytest

from qinl.kernel import (
    App,
    Base,
    Context,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    TypeMismatch,
    UNIT,
    UNIT_TERM,
    UnboundVariable,
    UnknownBaseType,
    UnknownOperation,
    Var,
    check_context,
    format_term,
    format_type,
    infer_type,
)

from conftest import company_schema
from oracles import _subst


@pytest.fixture
def sig():
    return company_schema().sig


def test_variable_rule(sig):
    ctx = Context.of(("x", Base("Emp")))
    assert infer_type(sig, ctx, Var("x")) == Base("Emp")


def test_unit_introduction(sig):
    assert infer_type(sig, Context(), UNIT_TERM) == UNIT


def test_composed_operations_type(sig):
    ctx = Context.of(("x", Base("String")))
    term = App("length", App("reverse", Var("x")))
    assert infer_type(sig, ctx, term) == Base("Int")


def test_projection_from_unit_rejected(sig):
    with pytest.raises(TypeMismatch):
        infer_type(sig, Context(), Proj1(UNIT_TERM))


def test_pairs_and_projections(sig):
    ctx = Context.of(("e", Base("Emp")))
    pair = Pair(App("ename", Var("e")), App("worksIn", Var("e")))
    assert infer_type(sig, ctx, pair) == Prod(Base("String"), Base("Dept"))
    assert infer_type(sig, ctx, Proj2(pair)) == Base("Dept")


def test_unbound_variable(sig):
    with pytest.raises(UnboundVariable):
        infer_type(sig, Context(), Var("ghost"))


def test_unknown_operation(sig):
    with pytest.raises(UnknownOperation):
        infer_type(sig, Context.of(("x", Base("Emp"))), App("fire", Var("x")))


def test_application_domain_mismatch(sig):
    ctx = Context.of(("x", Base("Emp")))
    with pytest.raises(TypeMismatch):
        infer_type(sig, ctx, App("reverse", Var("x")))


def test_shadowing_resolves_rightmost(sig):
    ctx = Context.of(("x", Base("Emp")), ("x", Base("String")))
    assert infer_type(sig, ctx, Var("x")) == Base("String")


def test_context_lookup_takes_the_rightmost_binding():
    ctx = Context.of(("x", Base("Emp")), ("x", Base("String")))
    assert ctx.lookup("x") == Base("String")
    assert ctx.extend("x", Base("Dept")).lookup("x") == Base("Dept")
    assert ctx.extend("y", Base("Dept")).lookup("x") == Base("String")
    assert ctx.lookup("y") is None
    assert ctx == Context(ctx.bindings) and hash(ctx) == hash(Context(ctx.bindings))


def test_empty_context_is_valid(sig):
    check_context(sig, Context())


def test_context_with_declared_types(sig):
    check_context(sig, Context.of(("x", Base("Emp")),
                                  ("y", Prod(Base("Int"), UNIT))))


def test_context_with_undeclared_type():
    empty_sig = Signature.of(set(), {})
    with pytest.raises(UnknownBaseType):
        check_context(empty_sig, Context.of(("x", Base("Emp"))))


def test_substitute_under_application():
    term = App("worksIn", Var("x"))
    replacement = App("manager", Var("y"))
    assert _subst(term, {"x": replacement}) == App(
        "worksIn", App("manager", Var("y")))


def test_substitute_every_occurrence():
    term = Proj1(Pair(Var("x"), Var("x")))
    assert _subst(term, {"x": UNIT_TERM}) == Proj1(
        Pair(UNIT_TERM, UNIT_TERM))


def test_substitute_no_occurrence():
    assert _subst(Var("y"), {"x": UNIT_TERM}) == Var("y")


def test_format_roundtrippable_shapes(sig):
    term = Pair(App("ename", Var("e")), Proj1(Var("p")))
    assert format_term(term) == "(ename(e), p.1)"
    assert format_type(Prod(Prod(Base("A"), UNIT), Base("B"))) == "(A * 1) * B"


# --------------------------------------------------------------------------
# Randomized structural properties.

def random_term(rng: random.Random, sig: Signature, ctx: Context,
                want: object, depth: int):
    """Build a random term of the wanted type by construction."""
    candidates = []
    for var, t in ctx:
        if t == want:
            candidates.append(("var", var))
    if depth > 0:
        if want == UNIT:
            candidates.append(("unit",))
        if isinstance(want, Prod):
            candidates.append(("pair",))
        for op in sorted(sig.operations):
            if sig.operations[op][1] == want:
                candidates.append(("app", op))
        candidates.append(("proj",))
    if not candidates:
        if want == UNIT:
            return UNIT_TERM
        return None
    kind = rng.choice(candidates)
    if kind[0] == "var":
        return Var(kind[1])
    if kind[0] == "unit":
        return UNIT_TERM
    if kind[0] == "pair":
        fst = random_term(rng, sig, ctx, want.left, depth - 1)
        snd = random_term(rng, sig, ctx, want.right, depth - 1)
        return Pair(fst, snd) if fst and snd else None
    if kind[0] == "app":
        arg = random_term(rng, sig, ctx, sig.operations[kind[1]][0], depth - 1)
        return App(kind[1], arg) if arg else None
    other = Base("Dept") if rng.random() < 0.5 else UNIT
    inner = random_term(rng, sig, ctx,
                        Prod(want, other) if rng.random() < 0.5
                        else Prod(other, want), depth - 1)
    if inner is None:
        return None
    inferred = infer_type(sig, ctx, inner)
    return Proj1(inner) if inferred.left == want else Proj2(inner)


BASE_TYPES = [Base("Emp"), Base("String"), Base("Int"), Base("Dept"),
              Prod(Base("Emp"), Base("String")), UNIT]


def test_substitution_lemma():
    """ctx, x:T1 |- e : T2 and ctx |- r : T1 imply the substituted term
    still has type T2."""
    sig = company_schema().sig
    rng = random.Random(7)
    checked = 0
    for _ in range(900):
        t1 = rng.choice(BASE_TYPES)
        t2 = rng.choice(BASE_TYPES)
        ctx = Context.of(("k", Base("Emp")))
        extended = ctx.extend("x", t1)
        e = random_term(rng, sig, extended, t2, depth=5)
        r = random_term(rng, sig, ctx, t1, depth=3)
        if e is None or r is None:
            continue
        assert infer_type(sig, extended, e) == t2
        assert infer_type(sig, ctx, _subst(e, {"x": r})) == t2
        checked += 1
    assert checked > 100


def test_weakening():
    sig = company_schema().sig
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        want = rng.choice(BASE_TYPES)
        ctx = Context.of(("a", Base("Emp")), ("b", Base("String")))
        e = random_term(rng, sig, ctx, want, depth=5)
        if e is None:
            continue
        assert infer_type(sig, ctx, e) == want
        widened = ctx.extend("unused", rng.choice(BASE_TYPES))
        assert infer_type(sig, widened, e) == want
        checked += 1
    assert checked > 100


def test_subderivations_agree():
    """Types of subterms recomputed standalone agree with the types used
    inside the parent derivation."""
    sig = company_schema().sig
    rng = random.Random(13)
    for _ in range(200):
        want = rng.choice(BASE_TYPES)
        ctx = Context.of(("a", Base("Emp")), ("b", Base("String")))
        e = random_term(rng, sig, ctx, want, depth=4)
        if e is None:
            continue
        _check_consistent(sig, ctx, e)


def _check_consistent(sig, ctx, e):
    t = infer_type(sig, ctx, e)
    if isinstance(e, Pair):
        assert t == Prod(infer_type(sig, ctx, e.fst),
                         infer_type(sig, ctx, e.snd))
        _check_consistent(sig, ctx, e.fst)
        _check_consistent(sig, ctx, e.snd)
    elif isinstance(e, (Proj1, Proj2)):
        inner = infer_type(sig, ctx, e.of)
        assert isinstance(inner, Prod)
        assert t == (inner.left if isinstance(e, Proj1) else inner.right)
        _check_consistent(sig, ctx, e.of)
    elif isinstance(e, App):
        dom, cod = sig.operations[e.op]
        assert infer_type(sig, ctx, e.arg) == dom
        assert t == cod
        _check_consistent(sig, ctx, e.arg)
