from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qinl.equality import Theory
from qinl.kernel import (
    App,
    Base,
    Context,
    Lit,
    Pair,
    Prod,
    Proj1,
    Signature,
    TypeMismatch,
    UNIT,
    Var,
)
from qinl.nrc import (
    BOOL,
    BranchTypeMismatch,
    Empty,
    EqTest,
    EqTypeMismatch,
    FALSE,
    For,
    If,
    NonSetIteration,
    SetT,
    Singleton,
    TRUE,
    UninterpretedOperation,
    Union,
    nrc_infer_type,
    relational_library,
)
from qinl.schema import (
    UNIT_CELL,
    FqlSchema,
    Instance,
    SetV,
    cell_key,
    eval_term,
    format_cell,
    make_set,
)

from oracles import inhabits, naive_eval

SIG = Signature.of({"T1", "T2", "Int", "String", "Bool"}, {})
SCHEMA = FqlSchema(Theory.of(SIG), frozenset({"T1", "T2"}),
                   frozenset({"Int", "String", "Bool"}))
EMPTY_INSTANCE = Instance({}, {})


def ev(expr, env=None):
    return eval_term(SCHEMA, EMPTY_INSTANCE, env or {}, expr)


def int_set(*ns: int) -> SetV:
    return make_set(ns)


# --------------------------------------------------------------------------
# Typing

def test_projection_comprehension_types():
    ctx = Context.of(("I", SetT(Prod(Base("T1"), Base("T2")))))
    expr = For("x", Var("I"), Singleton(Proj1(Var("x"))))
    assert nrc_infer_type(SIG, ctx, expr) == SetT(Base("T1"))


def test_empty_set_annotation_types():
    assert nrc_infer_type(SIG, Context(), Empty(BOOL)) == SetT(BOOL)


def test_conditional_set_of_unit():
    from qinl.kernel import UNIT_TERM
    expr = If(TRUE, Singleton(UNIT_TERM), Empty(UNIT))
    assert nrc_infer_type(SIG, Context(), expr) == SetT(UNIT)


def test_non_set_body_rejected():
    ctx = Context.of(("I", SetT(Prod(Base("T1"), Base("T2")))))
    expr = For("x", Var("I"), Proj1(Var("x")))
    with pytest.raises(NonSetIteration):
        nrc_infer_type(SIG, ctx, expr)


def test_non_set_source_rejected():
    ctx = Context.of(("b", BOOL))
    with pytest.raises(NonSetIteration):
        nrc_infer_type(SIG, ctx, For("x", Var("b"), Empty(BOOL)))


def test_branch_mismatch():
    with pytest.raises(BranchTypeMismatch):
        nrc_infer_type(SIG, Context(), If(TRUE, TRUE, Empty(BOOL)))


def test_eq_mismatch():
    with pytest.raises(EqTypeMismatch):
        nrc_infer_type(SIG, Context(), EqTest(TRUE, Empty(BOOL)))


def test_union_requires_matching_elements():
    with pytest.raises(TypeMismatch):
        nrc_infer_type(SIG, Context(),
                       Union(Empty(BOOL), Empty(UNIT)))


# --------------------------------------------------------------------------
# Values

def test_set_values_deduplicate_and_sort():
    s = make_set([3, 1, 3, 2])
    assert list(s.members) == [1, 2, 3]


def test_value_equality_is_structural():
    assert int_set(1, 2) == int_set(2, 1)
    assert int_set(1) != int_set(2)


def test_value_type_reconstruction():
    # A set carries no element type; the value inhabits its static type.
    v = ev(Pair(Lit("Int", 1), Singleton(TRUE)))
    assert v == (1, SetV((True,)))
    assert inhabits(v, Prod(Base("Int"), SetT(BOOL)))


def test_value_key_total_order_mixed():
    values = [UNIT_CELL, False, 5, "a", (1, 2), int_set(1)]
    keys = [cell_key(v) for v in values]
    assert sorted(keys) == sorted(set(keys))


def test_format_value():
    assert format_cell(int_set(2, 1)) == "{1, 2}"
    assert format_cell(("a", UNIT_CELL)) == '("a", ())'


# --------------------------------------------------------------------------
# Evaluation against the independent naive oracle

def _to_naive(v):
    if v is UNIT_CELL:
        return "()"
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, str)):
        return ("const", "String" if isinstance(v, str) else "Int", v)
    if isinstance(v, tuple):
        return (_to_naive(v[0]), _to_naive(v[1]))
    if isinstance(v, SetV):
        return frozenset(_to_naive(m) for m in v.members)
    raise AssertionError


def _both(expr, env):
    mine = ev(expr, env)
    naive_env = {k: _to_naive(v) for k, v in env.items()}
    theirs = naive_eval(expr, naive_env, {})
    assert _to_naive(mine) == theirs
    return mine


def test_projection_on_pairs():
    rel = make_set([(1, "a"), (2, "b")])
    ctx, expr = relational_library()["project1"](Base("Int"), Base("String"))
    result = _both(expr, {"I": rel})
    assert result == int_set(1, 2)


def test_product_of_unary_relations():
    pair_of_sets = (int_set(1, 2), make_set(["a"]))
    ctx, expr = relational_library()["product"](Base("Int"), Base("String"))
    result = _both(expr, {"I": pair_of_sets})
    expected = make_set([(1, "a"), (2, "a")])
    assert result == expected


def test_select_equal_columns():
    rel = make_set([(1, 1), (1, 2)])
    ctx, expr = relational_library()["select-eq"](Base("Int"), Base("Int"))
    result = _both(expr, {"I": rel})
    assert result == make_set([(1, 1)])


def test_union_with_empty_is_identity():
    expr = Union(Var("E"), Empty(Base("Int")))
    assert _both(expr, {"E": int_set(4, 7)}) == int_set(4, 7)


def test_unregistered_operation_fails():
    sig = Signature.of({"Int"}, {"mystery": (Base("Int"), Base("Int"))})
    schema = FqlSchema(Theory.of(sig), frozenset(), frozenset({"Int"}))
    with pytest.raises(UninterpretedOperation):
        eval_term(schema, EMPTY_INSTANCE, {"x": 1}, App("mystery", Var("x")))


def test_for_over_empty_source_keeps_body_type():
    # A set carries no element type, so iterating an empty source types
    # nothing at run time: the result is the one empty set.
    expr = For("x", Empty(Base("Int")), Singleton(Singleton(Var("x"))))
    assert ev(expr) == SetV(())


def test_relational_library_shapes():
    lib = relational_library()
    assert set(lib) == {"project1", "product", "select-eq"}
    ctx, expr = lib["project1"](Base("T1"), Base("T2"))
    assert ctx.lookup("I") == SetT(Prod(Base("T1"), Base("T2")))
    assert nrc_infer_type(SIG, ctx, expr) == SetT(Base("T1"))
    ctx, expr = lib["product"](Base("T1"), Base("T2"))
    assert nrc_infer_type(SIG, ctx, expr) == SetT(Prod(Base("T1"), Base("T2")))
    # selection compares the two columns, so they must share a type
    ctx, expr = lib["select-eq"](Base("T1"), Base("T1"))
    assert nrc_infer_type(SIG, ctx, expr) == SetT(Prod(Base("T1"), Base("T1")))


# --------------------------------------------------------------------------
# The standard set equations, validated on the evaluator.

small_int_sets = st.sets(st.integers(min_value=0, max_value=5),
                         max_size=4).map(lambda ns: int_set(*ns))


@given(small_int_sets, small_int_sets)
def test_union_commutes(a, b):
    expr_ab = Union(Var("A"), Var("B"))
    expr_ba = Union(Var("B"), Var("A"))
    env = {"A": a, "B": b}
    assert ev(expr_ab, env) == ev(expr_ba, env)


@given(small_int_sets, small_int_sets, small_int_sets)
def test_union_associates(a, b, c):
    left = Union(Union(Var("A"), Var("B")), Var("C"))
    right = Union(Var("A"), Union(Var("B"), Var("C")))
    env = {"A": a, "B": b, "C": c}
    assert ev(left, env) == ev(right, env)


@given(small_int_sets)
def test_union_idempotent_and_empty_unit(a):
    env = {"A": a}
    assert ev(Union(Var("A"), Var("A")), env) == a
    assert ev(Union(Var("A"), Empty(Base("Int"))), env) == a


BODY = Singleton(Pair(Var("x"), Var("x")))


@given(small_int_sets, small_int_sets)
def test_for_distributes_over_union_in_source(a, b):
    env = {"A": a, "B": b}
    joined = For("x", Union(Var("A"), Var("B")), BODY)
    split = Union(For("x", Var("A"), BODY), For("x", Var("B"), BODY))
    assert ev(joined, env) == ev(split, env)


def test_for_over_empty_is_empty():
    expr = For("x", Empty(Base("Int")), BODY)
    assert ev(expr).members == ()


@given(st.integers(min_value=0, max_value=9))
def test_for_over_singleton_is_substitution(n):
    expr = For("x", Singleton(Var("v")), BODY)
    direct = ev(BODY, {"x": n})
    assert ev(expr, {"v": n}) == direct


@given(small_int_sets)
def test_deduplication_of_self_union(a):
    doubled = ev(Union(Var("A"), Var("A")), {"A": a})
    assert len(doubled.members) == len(a.members)


# --------------------------------------------------------------------------
# Type soundness on generated well-typed expressions.

TYPES = [Base("Int"), BOOL, UNIT, Prod(Base("Int"), BOOL),
         SetT(Base("Int")), SetT(Prod(Base("Int"), Base("Int")))]


def _random_expr(rng: random.Random, ctx_types: dict, want, depth: int):
    options = []
    for var, t in ctx_types.items():
        if t == want:
            options.append(("var", var))
    if want == BOOL:
        options.append(("bool",))
        if depth > 0:
            options.append(("eq",))
    if want == UNIT:
        options.append(("unit",))
    if isinstance(want, Base) and want.name == "Int":
        options.append(("lit",))
    if isinstance(want, SetT):
        options.append(("empty",))
        if depth > 0:
            options += [("single",), ("union",), ("for",)]
    if isinstance(want, Prod):
        options.append(("pair",))  # components are smaller, so this grounds out
    if depth > 0:
        options.append(("if",))
    kind = rng.choice(options)
    recur = lambda w, d=depth - 1: _random_expr(rng, ctx_types, w, d)
    if kind[0] == "var":
        return Var(kind[1])
    if kind[0] == "bool":
        return TRUE if rng.random() < 0.5 else FALSE
    if kind[0] == "unit":
        from qinl.kernel import UNIT_TERM
        return UNIT_TERM
    if kind[0] == "lit":
        return Lit("Int", rng.randint(0, 3))
    if kind[0] == "eq":
        t = rng.choice(TYPES[:4])
        return EqTest(recur(t), recur(t))
    if kind[0] == "empty":
        return Empty(want.elem)
    if kind[0] == "single":
        return Singleton(recur(want.elem))
    if kind[0] == "union":
        return Union(recur(want), recur(want))
    if kind[0] == "for":
        src_elem = rng.choice(TYPES[:4])
        var = f"v{depth}"
        inner = dict(ctx_types)
        inner[var] = src_elem
        body = _random_expr(rng, inner, want, depth - 1)
        return For(var, recur(SetT(src_elem)), body)
    if kind[0] == "pair":
        return Pair(recur(want.left), recur(want.right))
    if kind[0] == "if":
        return If(recur(BOOL), recur(want), recur(want))
    raise AssertionError(kind)


def test_type_soundness_on_generated_expressions():
    rng = random.Random(5)
    for _ in range(300):
        want = rng.choice(TYPES)
        expr = _random_expr(rng, {}, want, depth=5)
        ctx = Context()
        assert nrc_infer_type(SIG, ctx, expr) == want
        assert inhabits(ev(expr), want)
