from __future__ import annotations

import contextlib
import functools
import io
import random
from pathlib import Path

import pytest

import digest
from qinl import chase, mapping
from qinl.chase import FuelExhausted, saturate
from qinl.cli import main
from qinl.equality import (
    EGraph,
    Equation,
    IllTyped,
    LOG_LIMIT,
    NODE_LIMIT,
    Proved,
    Theory,
    Unknown,
    check_theory,
    decide_by_saturation,
    decide_equal,
    node_cap,
    normal_images,
)
from qinl.kernel import (
    App,
    Base,
    Context,
    Lit,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    UNIT,
    UNIT_TERM,
    UnitTerm,
    Var,
    format_term,
    normalise,
    subterms,
)
from qinl.schema import UNIT_CELL, FqlSchema, Instance, eval_column

from conftest import company_schema
from oracles import (
    EGraph as HashConsed,
    add_by_walk,
    check_egraph_indexes,
    check_tables,
    egraph_decide_equal,
    egraph_chase,
    find_countermodel,
    match_every_root,
    rewrite_reachable,
    true_in_all_models,
)


@pytest.fixture
def company_theory():
    return company_schema().theory


def rev(t):
    return App("reverse", t)


def test_projection_axiom_schematic():
    sig = Signature.of({"T1", "T2"}, {})
    ctx = Context.of(("x1", Base("T1")), ("x2", Base("T2")))
    th = Theory.of(sig)
    pair = Pair(Var("x1"), Var("x2"))
    assert isinstance(decide_equal(th, ctx, Proj1(pair), Var("x1"), 4), Proved)
    assert isinstance(decide_equal(th, ctx, Proj2(pair), Var("x2"), 4), Proved)


def test_surjective_pairing_schematic():
    sig = Signature.of({"T1", "T2"}, {})
    ctx = Context.of(("e", Prod(Base("T1"), Base("T2"))))
    th = Theory.of(sig)
    verdict = decide_equal(th, ctx, Var("e"),
                           Pair(Proj1(Var("e")), Proj2(Var("e"))), 4)
    assert isinstance(verdict, Proved)


def test_unit_law_schematic():
    th = Theory.of(Signature.of({"T1"}, {}))
    verdict = decide_equal(th, Context.of(("u", UNIT)), Var("u"), UNIT_TERM, 4)
    assert isinstance(verdict, Proved)


def test_double_reverse_proved(company_theory):
    ctx = Context.of(("x", Base("String")))
    verdict = decide_equal(company_theory, ctx, rev(rev(Var("x"))), Var("x"))
    assert isinstance(verdict, Proved)


def test_triple_reverse_under_length_proved(company_theory):
    """Provable by collapsing the inner double reverse and then applying the
    length axiom; cross-checked with the rewrite-closure oracle."""
    ctx = Context.of(("x", Base("String")))
    a = App("length", rev(rev(rev(Var("x")))))
    b = App("length", Var("x"))
    assert rewrite_reachable(list(company_theory.equations), a, b)
    assert isinstance(decide_equal(company_theory, ctx, a, b), Proved)


def test_distinct_variables_unknown():
    th = Theory.of(Signature.of({"T1"}, {}))
    ctx = Context.of(("x", Base("T1")), ("y", Base("T1")))
    verdict = decide_equal(th, ctx, Var("x"), Var("y"), 4)
    assert isinstance(verdict, Unknown)
    assert verdict.stopped == "saturated"


def test_unknown_reports_caps():
    th = Theory.of(Signature.of({"T1"}, {}))
    ctx = Context.of(("x", Base("T1")), ("y", Base("T1")))
    verdict = decide_equal(th, ctx, Var("x"), Var("y"), 5)
    assert verdict.fuel == 5
    assert verdict.node_cap == 5000


@pytest.mark.parametrize("fuel, cap", [
    (1, 1000), (1000, 1_000_000), (1001, NODE_LIMIT), (10**9, NODE_LIMIT)])
def test_node_cap_is_bounded_whatever_the_fuel(fuel, cap):
    """A goal that saturates at once, run at a huge fuel, reports the one
    capped budget; the chase uses the same one."""
    assert NODE_LIMIT == 1_000_000
    assert node_cap(fuel) == cap
    th = Theory.of(Signature.of({"T1"}, {}))
    ctx = Context.of(("x", Base("T1")), ("y", Base("T1")))
    verdict = decide_equal(th, ctx, Var("x"), Var("y"), fuel)
    assert verdict == Unknown(1, fuel, cap, "saturated")


def test_unknown_says_when_the_node_cap_stopped_it():
    """Goals of 2,048 nodes against the 1,000-node cap of fuel 1: the
    first node the round adds stops it."""
    def tree(depth, first):
        if depth == 0:
            return Lit("Int", first)
        half = 2 ** (depth - 1)
        return Pair(tree(depth - 1, first), tree(depth - 1, first + half))

    a, b = tree(10, 0), tree(10, 1)
    verdict = decide_equal(Theory.of(Signature.of({"Int"}, {})), Context(), a, b, 1)
    assert verdict == Unknown(1, 1, 1000, "nodes")
    assert verdict.stopped == "nodes"


def test_ill_typed_goal_rejected(company_theory):
    ctx = Context.of(("x", Base("String")))
    with pytest.raises(IllTyped):
        decide_equal(company_theory, ctx, Var("x"),
                     App("length", Var("x")), 4)


def test_ill_typed_equation_rejected():
    """The prover types each equation side it matches, once per theory."""
    sig = Signature.of({"A", "B"}, {"f": (Base("B"), Base("B"))})
    bad = Equation(Context.of(("x", Base("A"))), App("f", Var("x")), App("f", Var("x")))
    th = Theory.of(sig, [bad])
    with pytest.raises(IllTyped, match="equation 'forall x: A . f"):
        decide_equal(th, Context.of(("b", Base("B"))), Var("b"), App("f", Var("b")), 4)


def test_fuel_must_be_positive(company_theory):
    with pytest.raises(ValueError):
        decide_equal(company_theory, Context.of(("x", Base("String"))),
                     Var("x"), Var("x"), 0)


def test_fuel_monotonicity(company_theory):
    ctx = Context.of(("x", Base("String")))
    a = App("length", rev(rev(rev(Var("x")))))
    b = App("length", Var("x"))
    proved_at = None
    for fuel in range(1, 12):
        if isinstance(decide_equal(company_theory, ctx, a, b, fuel), Proved):
            proved_at = fuel
            break
    assert proved_at is not None
    for fuel in range(proved_at, proved_at + 6):
        assert isinstance(decide_equal(company_theory, ctx, a, b, fuel), Proved)


def test_congruence_of_provable_equalities(company_theory):
    ctx = Context.of(("x", Base("String")))
    lhs, rhs = rev(rev(Var("x"))), Var("x")
    assert isinstance(decide_equal(company_theory, ctx, lhs, rhs, 8), Proved)
    for op in ("length", "reverse"):
        verdict = decide_equal(company_theory, ctx, App(op, lhs), App(op, rhs), 8)
        assert isinstance(verdict, Proved)


def test_var_var_equation_merges_type():
    sig = Signature.of({"T"}, {"f": (Base("T"), Base("T"))})
    collapse = Equation(Context.of(("x", Base("T")), ("y", Base("T"))),
                        Var("x"), Var("y"))
    th = Theory.of(sig, [collapse])
    ctx = Context.of(("a", Base("T")), ("b", Base("T")))
    assert isinstance(decide_equal(th, ctx, App("f", Var("a")), Var("b"), 8),
                      Proved)


SAME_COMPANY = "forall x: Emp, y: Emp . company(x) = company(y)"


@pytest.mark.parametrize("a, b", [
    (App("company", Var("a")), App("company", App("manager", Var("b")))),
    (App("company", App("manager", Var("a"))), App("company", Var("b")))])
def test_matched_side_leaves_a_variable_free(a, b):
    """Each side of `company(x) = company(y)` binds one variable; the other
    ranges over every Emp class, so matching company(a) adds company(b)
    before it meets company(manager(b)).  Without the equation the goal is
    not provable."""
    sig = Signature.of({"Emp", "Co"}, {"company": (Base("Emp"), Base("Co")),
                                       "manager": (Base("Emp"), Base("Emp"))})
    same = Equation(Context.of(("x", Base("Emp")), ("y", Base("Emp"))),
                    App("company", Var("x")), App("company", Var("y")))
    ctx = Context.of(("a", Base("Emp")), ("b", Base("Emp")))
    verdict = decide_equal(Theory.of(sig, [same]), ctx, a, b, 8)
    summary = f"proved {format_term(a)} = {format_term(b)} in 1 round(s) over 6 node(s)"
    assert verdict == Proved((summary, SAME_COMPANY, SAME_COMPANY))
    assert decide_equal(Theory.of(sig), ctx, a, b, 8) == Unknown(1, 8, 8000, "saturated")


def test_check_theory_accepts_company(company_theory):
    assert check_theory(company_theory) == []


def test_check_theory_rejects_unbalanced_sides():
    sig = company_schema().sig
    bad = Equation(Context.of(("x", Base("Emp"))),
                   App("ename", Var("x")), Var("x"))
    problems = check_theory(Theory.of(sig, [bad]))
    assert len(problems) == 1
    assert "String" in problems[0].message and "Emp" in problems[0].message


def test_check_theory_reports_all_failures():
    sig = company_schema().sig
    bad1 = Equation(Context(), Var("ghost"), Var("ghost"))
    bad2 = Equation(Context.of(("x", Base("Emp"))),
                    App("ename", Var("x")), Var("x"))
    good = Equation(Context.of(("x", Base("String"))), Var("x"), Var("x"))
    problems = check_theory(Theory.of(sig, [bad1, good, bad2]))
    assert [p.index for p in problems] == [0, 2]


def test_empty_theory_checks():
    assert check_theory(Theory.of(Signature.of(set(), {}))) == []


# --------------------------------------------------------------------------
# Soundness against exhaustive small models.

def _random_theory(rng: random.Random):
    names = ["A", "B"][: rng.randint(1, 2)]
    ops = {}
    for i in range(rng.randint(1, 3)):
        ops[f"f{i}"] = (Base(rng.choice(names)), Base(rng.choice(names)))
    sig = Signature.of(set(names), ops)
    equations = []
    for _ in range(rng.randint(0, 2)):
        t = rng.choice(names)
        lhs = _random_chain(rng, sig, t, rng.randint(0, 2))
        rhs = _random_chain(rng, sig, t, rng.randint(0, 2))
        if lhs is not None and rhs is not None and lhs[1] == rhs[1]:
            equations.append(Equation(Context.of(("v", Base(t))),
                                      lhs[0], rhs[0]))
    return Theory.of(sig, equations)


def _random_chain(rng, sig, start, length):
    term, t = Var("v"), start
    for _ in range(length):
        options = [op for op, (dom, _) in sig.operations.items()
                   if dom == Base(t)]
        if not options:
            return None
        op = rng.choice(options)
        term, t = App(op, term), sig.operations[op][1].name
    return term, t


def test_proved_never_contradicted_by_small_models():
    """Every Proved verdict on randomly generated entity-only theories is
    confirmed by exhaustive finite-model checking with carriers up to 2."""
    rng = random.Random(20)
    proved = 0
    for _ in range(120):
        th = _random_theory(rng)
        t = rng.choice(sorted(th.sig.base_types))
        goal_l = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        goal_r = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        if goal_l is None or goal_r is None or goal_l[1] != goal_r[1]:
            continue
        ctx = Context.of(("v", Base(t)))
        verdict = decide_equal(th, ctx, goal_l[0], goal_r[0], 8)
        if isinstance(verdict, Proved):
            proved += 1
            assert true_in_all_models(th, ctx, goal_l[0], goal_r[0], 2)
    assert proved >= 10


def test_unknown_on_semantically_false_goal(company_theory):
    """ename(x) vs ename(manager(x)) is not forced by the theory: a
    countermodel exists, and the engine answers Unknown, never Proved."""
    sig = company_schema().sig
    entity_sig = Signature.of(
        {"Emp", "Dept", "String", "Int"}, dict(sig.operations))
    th = Theory.of(entity_sig, company_theory.equations)
    ctx = Context.of(("x", Base("Emp")))
    a = App("ename", Var("x"))
    b = App("ename", App("manager", Var("x")))
    assert find_countermodel(th, ctx, a, b, 2) is not None
    assert isinstance(decide_equal(th, ctx, a, b, 6), Unknown)


def test_fuel_monotonicity_on_random_theories():
    rng = random.Random(41)
    upgraded = 0
    for _ in range(80):
        th = _random_theory(rng)
        t = rng.choice(sorted(th.sig.base_types))
        a = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        b = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        if a is None or b is None or a[1] != b[1]:
            continue
        ctx = Context.of(("v", Base(t)))
        for fuel in range(1, 7):
            if isinstance(decide_equal(th, ctx, a[0], b[0], fuel), Proved):
                for higher in (fuel + 1, fuel + 3):
                    assert isinstance(
                        decide_equal(th, ctx, a[0], b[0], higher), Proved)
                upgraded += 1
                break
    assert upgraded >= 15


def test_indexes_match_a_full_sweep_after_every_round(monkeypatch):
    """After every round of the prover and of the chase, the tables are
    keyed by roots and the root and literal indexes equal what a sweep over
    the union-find recomputes; so do the class index, the root lists and
    the hash-cons table of the hash-consed e-graph that both are tested
    against: on the random theories of the fuel test, on goals with pairs,
    projections and unit, which the graph holds in base normal form, and
    on one that folds builtins."""
    rounds = []

    def checking(graph_type, check):
        rebuild = graph_type.rebuild

        def checked(graph):
            changed = rebuild(graph)
            check(graph)
            rounds.append(graph_type)
            return changed
        monkeypatch.setattr(graph_type, "rebuild", checked)

    checking(EGraph, check_tables)
    checking(HashConsed, check_egraph_indexes)
    rng = random.Random(41)
    for _ in range(80):
        th = _random_theory(rng)
        t = rng.choice(sorted(th.sig.base_types))
        a = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        b = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        if a is None or b is None or a[1] != b[1]:
            continue
        for prove in (decide_equal, egraph_decide_equal):
            prove(th, Context.of(("v", Base(t))), a[0], b[0], 6)
        schema = FqlSchema(th, frozenset(th.sig.base_types), frozenset())
        for run in (saturate, egraph_chase):
            try:
                run(schema, {"g": t, "h": t}, [(Var("g"), Var("h"))], 6)
            except FuelExhausted:
                pass
    sig = Signature.of({"T1", "T2"}, {})
    pairs = Context.of(("e", Prod(Base("T1"), Base("T2"))),
                       ("x1", Base("T1")), ("x2", Base("T2")), ("u", UNIT))
    company = company_schema()
    word = Lit("String", "abc")
    for prove in (decide_equal, egraph_decide_equal):
        for a, b in ((Var("e"), Pair(Proj1(Var("e")), Proj2(Var("e")))),
                     (Proj2(Pair(Var("x1"), Var("x2"))), Var("x2")),
                     (Var("u"), UNIT_TERM)):
            prove(Theory.of(sig), pairs, a, b, 4)
        prove(company.theory, Context(), App("length", rev(rev(word))),
              Lit("Int", 3), 8, company.builtin_ops())
    assert rounds.count(EGraph) > 300 and rounds.count(HashConsed) > 300


# --------------------------------------------------------------------------
# Golden verdicts: the exact answers the prover gave before its e-graph kept
# indexes.  Indexing must not change a round count, a node count or a reason.

WORKS_IN = "forall x: Emp . worksIn(x) = worksIn(manager(x))"


def _managers(k: int, t):
    for _ in range(k):
        t = App("manager", t)
    return t


@pytest.mark.parametrize("fuel", (32, 64))
@pytest.mark.parametrize("k, rounds, nodes, reasons", [
    (6, 3, 20, 9), (16, 8, 50, 24), (25, 13, 78, 30), (33, 17, 102, 30),
    (64, 32, 194, 30)])
def test_deep_manager_proofs_keep_their_traces(company_theory, fuel, k,
                                               rounds, nodes, reasons):
    a = App("worksIn", _managers(k, Var("x")))
    b = App("worksIn", Var("x"))
    verdict = decide_by_saturation(company_theory, Context.of(("x", Base("Emp"))),
                                   a, b, fuel)
    summary = (f"proved {format_term(a)} = {format_term(b)} "
               f"in {rounds} round(s) over {nodes} node(s)")
    assert verdict == Proved((summary,) + (WORKS_IN,) * reasons)


# The false claims of the benchmark's generated `check` files:
#   forall x: Emp . manager(x) = x;
#   forall x: Emp . manager(manager(x)) = manager(x);
#   forall x: Emp . ename(manager(x)) = ename(x);
FALSE_CLAIMS = [
    (_managers(1, Var("x")), Var("x")),
    (_managers(2, Var("x")), _managers(1, Var("x"))),
    (App("ename", _managers(1, Var("x"))), App("ename", Var("x"))),
]


@pytest.mark.parametrize("fuel", (32, 64))
@pytest.mark.parametrize("lhs, rhs", FALSE_CLAIMS)
def test_false_claims_keep_their_unknown_verdicts(company_theory, fuel, lhs, rhs):
    verdict = decide_equal(company_theory, Context.of(("x", Base("Emp"))),
                           lhs, rhs, fuel)
    assert verdict == Unknown(1, fuel, fuel * 1000, "saturated")


# --------------------------------------------------------------------------
# Path theories decided by rewriting.

def _word(term) -> tuple[str, ...]:
    """The operations of a path, innermost first."""
    ops = []
    while isinstance(term, App):
        ops.append(term.op)
        term = term.arg
    return tuple(reversed(ops))


def _spell(word) -> App | Var:
    """The path from x that applies the operations `word`, innermost first."""
    t = Var("x")
    for op in word:
        t = App(op, t)
    return t


def test_company_completes_to_its_three_equations_oriented(company_theory):
    assert company_theory.completion.rules == (
        (("reverse", "length"), ("length",)),
        (("reverse", "reverse"), ()),
        (("manager", "worksIn"), ("worksIn",)))
    assert company_theory.completion.reasons[2] == (
        "forall x: Emp . worksIn(manager(x)) -> worksIn(x)")


def test_a_deep_manager_proof_needs_no_fuel(company_theory):
    """worksIn(manager^200(x)) = worksIn(x) is 200 rewrites of one rule;
    saturation, at fuel 1, gets one round and stops."""
    a = App("worksIn", _managers(200, Var("x")))
    b = App("worksIn", Var("x"))
    ctx = Context.of(("x", Base("Emp")))
    verdict = decide_equal(company_theory, ctx, a, b, 1)
    rule = "forall x: Emp . worksIn(manager(x)) -> worksIn(x)"
    assert verdict == Proved((f"proved {format_term(a)} = worksIn(x) in 0 round(s) "
                              f"by rewriting both sides to worksIn(x)",) + (rule,) * LOG_LIMIT)
    assert decide_by_saturation(company_theory, ctx, a, b, 1) == Unknown(1, 1, 1000, "fuel")


@pytest.mark.parametrize("equation", [
    Equation(Context.of(("x", Base("A")), ("y", Base("A"))),
             App("h", Var("x")), App("h", Var("y"))),
    Equation(Context.of(("x", Base("A"))), App("f0", Var("x")), Lit("String", "ab")),
    Equation(Context.of(("x", Base("A")), ("y", Base("B"))), App("h", Var("x")), Var("x")),
])
def test_only_path_theories_complete(equation):
    """Two variables, a literal, or a variable the sides do not use."""
    a, b, s = Base("A"), Base("B"), Base("String")
    sig = Signature.of({"A", "B", "String"}, {"h": (a, a), "f0": (a, s), "g": (a, b)})
    assert Theory.of(sig, [equation]).completion is None
    assert Theory.of(sig, [Equation(Context.of(("x", a)), App("h", App("h", Var("x"))),
                                    Var("x"))]).completion is not None


def test_a_theory_that_does_not_complete_is_left_to_saturation():
    """aba = bab (the positive braid monoid on two strands) has no finite
    complete system under shortlex: completion adds b a^n b a -> a b a a b^(n-1)
    for n = 2, 3, ... until its budget is spent.  Each goal then gets
    exactly what saturation gives."""
    A = Base("A")
    sig = Signature.of({"A"}, {"a": (A, A), "b": (A, A)})

    th = Theory.of(sig, [Equation(Context.of(("x", A)), _spell("aba"), _spell("bab"))])
    assert th.completion is None
    ctx = Context.of(("x", A))
    goals = [("aba", "bab"), ("abab", "baba"), ("baab", "abab"), ("a", "b"), ("bbab", "baba")]
    verdicts = []
    for left, right in goals:
        verdict = decide_equal(th, ctx, _spell(left), _spell(right), 8)
        assert verdict == decide_by_saturation(th, ctx, _spell(left), _spell(right), 8)
        verdicts.append(type(verdict))
    assert Proved in verdicts and Unknown in verdicts


def test_completions_are_complete_and_inter_reduced():
    """On random theories of one to three equations between words over
    three operations of one type: each rule decreases in shortlex, its
    right side is irreducible, no left side is a factor of another's, and
    every word in which two left sides overlap has one normal form, so the
    system is confluent (Newman's lemma); a goal saturation proves has one
    normal form on both sides."""
    A = Base("A")
    sig = Signature.of({"A"}, {"a": (A, A), "b": (A, A), "c": (A, A)})

    def factor(part, word):
        return any(word[i:i + len(part)] == part for i in range(len(word) - len(part) + 1))

    rng = random.Random(7)
    completed = overlaps = proved = 0
    for _ in range(300):
        th = Theory.of(sig, [
            Equation(Context.of(("x", A)),
                     _spell(rng.choices("abc", k=rng.randint(1, 3))),
                     _spell(rng.choices("abc", k=rng.randint(0, 3))))
            for _ in range(rng.randint(1, 3))])
        completion = th.completion
        if completion is None:
            continue
        completed += 1
        rules = completion.rules
        for lhs, rhs in rules:
            assert (len(rhs), rhs) < (len(lhs), lhs)
            assert completion.normal_form(rhs) == (rhs, [])
            assert not any(other != lhs and factor(other, lhs) for other, _ in rules)
        for l1, r1 in rules:
            for l2, r2 in rules:
                for k in range(1, min(len(l1), len(l2))):
                    if l1[-k:] == l2[:k]:
                        overlaps += 1
                        assert (completion.normal_form(r1 + l2[k:])[0]
                                == completion.normal_form(l1[:-k] + r2)[0])
        ctx = Context.of(("x", A))
        a, b = (_spell(rng.choices("abc", k=rng.randint(0, 5))) for _ in range(2))
        if isinstance(decide_by_saturation(th, ctx, a, b, 8), Proved):
            proved += 1
            assert completion.normal_form(_word(a))[0] == completion.normal_form(_word(b))[0]
    assert completed >= 250 and overlaps >= 1000 and proved >= 25


def test_normal_forms_agree_with_saturation_and_small_models():
    """On random path theories of one or two types: where saturation
    proves a goal, its sides have one normal form, and where they do, the
    goal holds in every model with carriers of up to 2 elements and
    `decide_equal` proves it by rewriting."""
    rng = random.Random(42)
    completed = proved = equal = 0
    for _ in range(300):
        th = _random_theory(rng)
        t = rng.choice(sorted(th.sig.base_types))
        a = _random_chain(rng, th.sig, t, rng.randint(0, 4))
        b = _random_chain(rng, th.sig, t, rng.randint(0, 4))
        if a is None or b is None or a[1] != b[1] or th.completion is None:
            continue
        completed += 1
        ctx = Context.of(("v", Base(t)))
        forms = [th.completion.normal_form(_word(side[0]))[0] for side in (a, b)]
        if isinstance(decide_by_saturation(th, ctx, a[0], b[0], 8), Proved):
            proved += 1
            assert forms[0] == forms[1]
        if forms[0] == forms[1]:
            equal += 1
            assert true_in_all_models(th, ctx, a[0], b[0], 2)
            verdict = decide_equal(th, ctx, a[0], b[0], 8)
            assert " in 0 round(s) by rewriting both sides to " in verdict.trace[0]
    assert completed >= 200 and proved >= 50 and equal > proved


# --------------------------------------------------------------------------
# Semi-naive matching against the oracle that instantiates every match.

A, B, STR, INT = Base("A"), Base("B"), Base("String"), Base("Int")
AB, AA = Prod(A, B), Prod(A, A)
TYPES = (A, B, STR, INT, AB, AA, UNIT)
BUILTINS = {"length": len, "reverse": lambda s: s[::-1]}
LITERALS = {STR: (Lit("String", "ab"), Lit("String", "ba")), INT: (Lit("Int", 2),)}


def _random_signature(rng: random.Random) -> Signature:
    """Operations between base types, as in every schema."""
    ops = {"length": (STR, INT), "reverse": (STR, STR), "g": (A, B), "h": (A, A)}
    for i in range(rng.randint(1, 3)):
        ops[f"f{i}"] = (rng.choice((A, B)), rng.choice((A, B, STR)))
    return Signature.of({"A", "B", "String", "Int"}, ops)


def _random_term(rng: random.Random, sig: Signature, ctx: Context, t, depth: int):
    """A random term of type `t` over `ctx`, or None when there is none."""
    options = [Var(v) for v, vt in ctx if vt == t] + list(LITERALS.get(t, ()))
    if t == UNIT:
        options.append(UNIT_TERM)
    if depth > 0:
        options += [("app", op, dom) for op, (dom, cod) in sig.operations.items()
                    if cod == t]
        if isinstance(t, Prod):
            options.append(("pair",))
        options += [("proj", p) for p in (AB, AA) if t in (p.left, p.right)]
    rng.shuffle(options)
    for choice in options:
        if not isinstance(choice, tuple):
            return choice
        if choice[0] == "app":
            arg = _random_term(rng, sig, ctx, choice[2], depth - 1)
            if arg is not None:
                return App(choice[1], arg)
        elif choice[0] == "pair":
            fst = _random_term(rng, sig, ctx, t.left, depth - 1)
            snd = _random_term(rng, sig, ctx, t.right, depth - 1)
            if fst is not None and snd is not None:
                return Pair(fst, snd)
        else:
            p = choice[1]
            of = _random_term(rng, sig, ctx, p, depth - 1)
            if of is not None:
                if p.left == t and (p.right != t or rng.random() < 0.5):
                    return Proj1(of)
                return Proj2(of)
    return None


# One sort with two endomorphisms, whose chains grow and collapse over
# several rounds.
CHAIN = Signature.of({"A", "B"}, {"g": (A, B), "h": (A, A), "k": (A, A)})


def _random_problem(rng: random.Random):
    """A theory of one to four equations and a goal, with a fuel, or None.
    Half of the problems are over CHAIN; the others mix pairs, projections,
    literals and builtins, and half of those grow as worksIn(x) =
    worksIn(manager(x)) does."""
    chain = rng.random() < 0.5
    sig = CHAIN if chain else _random_signature(rng)
    sorts, types = ((A,), (A, B)) if chain else ((A, B, AB, STR), TYPES)

    def context() -> Context:
        return Context.of(*((v, rng.choice(sorts)) for v in ("x", "y")[: rng.randint(1, 2)]))

    x = Var("x")
    equations = [] if chain or rng.random() < 0.5 else [
        Equation(Context.of(("x", A)), App("g", x), App("g", App("h", x)))]
    while len(equations) < rng.randint(2, 4):
        ctx = context()
        t = rng.choice(types)
        lhs = _random_term(rng, sig, ctx, t, rng.randint(1, 3))
        rhs = _random_term(rng, sig, ctx, t, rng.randint(0, 3))
        if lhs is not None and rhs is not None and lhs != rhs:
            equations.append(Equation(ctx, lhs, rhs))
    ctx = context()
    t = rng.choice(types)
    a = _random_term(rng, sig, ctx, t, rng.randint(1, 4))
    b = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
    if a is None or b is None or a == b:
        return None
    return Theory.of(sig, equations), ctx, a, b, rng.randint(2, 4 if chain else 6)


def _prove_recording(monkeypatch, th, ctx, a, b, fuel):
    """The verdict of `decide_by_saturation`, its graph's entries and partition,
    and every union that merged two classes, in order; then the number of
    `union` calls."""
    graphs, merges, calls = [], [], [0]
    union, run = EGraph.union, EGraph.run

    def recording_union(self, x, y, reason=""):
        calls[0] += 1
        merged = union(self, x, y, reason)
        if merged:
            merges.append((x, y, reason))
        return merged

    def capturing(self, *args):
        graphs.append(self)
        return run(self, *args)

    monkeypatch.setattr(EGraph, "union", recording_union)
    monkeypatch.setattr(EGraph, "run", capturing)
    verdict = decide_by_saturation(th, ctx, a, b, fuel, builtin_ops=BUILTINS)
    graph = graphs[0]
    return (verdict, graph.tables, graph.literal_ids,
            [graph.find(n) for n in range(graph.node_count())], merges), calls[0]


@functools.cache
def _random_problems():
    """The 900 problems of `_random_problem` at seed 13."""
    rng, problems = random.Random(13), []
    while len(problems) < 900:
        problem = _random_problem(rng)
        if problem is not None:
            problems.append(problem)
    return problems


def test_semi_naive_matching_equals_every_match_on_random_problems(monkeypatch):
    """Pairs, projections, literals, builtins, two-variable contexts and
    nonlinear patterns: the semi-naive pass ends with the verdict, entries,
    partition and union log of instantiating every match each round.
    It skips matches, and it also meets stale keys after the first round,
    where unions of classes with entries precede a match."""
    add = EGraph.add
    stale = [0]

    def counting(self, side, env):
        if self.round > 1 and self.stale:
            stale[0] += 1
        return add(self, side, env)

    proved = calls = every_calls = 0
    for problem in _random_problems():
        with monkeypatch.context() as patch:
            patch.setattr(EGraph, "add", counting)
            got, n = _prove_recording(patch, *problem)
        with monkeypatch.context() as patch:
            patch.setattr(EGraph, "apply_equations_matched", match_every_root)
            want, every_n = _prove_recording(patch, *problem)
        assert got == want
        proved += isinstance(got[0], Proved)
        calls, every_calls = calls + n, every_calls + every_n
    assert proved >= 150
    assert stale[0] >= 1000
    assert calls < every_calls


def test_no_goal_the_reference_proves_is_unknown(monkeypatch, tmp_path):
    """On the random problems, on every preservation goal of
    `tests/test_mapping.py` and on every goal of the `read` corpus at seed
    1, `decide_equal` proves each goal that the hash-consed e-graph of
    `tests/oracles.py` proves; on most, saturation alone gives the same
    verdict and trace."""
    goals = [((th, ctx, a, b, fuel), {"builtin_ops": BUILTINS},
              decide_equal(th, ctx, a, b, fuel, builtin_ops=BUILTINS))
             for th, ctx, a, b, fuel in _random_problems()]
    recorded = len(goals)
    with monkeypatch.context() as patch:
        def recording(*args, **kwargs):
            goals.append((args, kwargs, decide_equal(*args, **kwargs)))
            return goals[-1][2]

        patch.setattr(mapping, "decide_equal", recording)
        assert pytest.main(["-q", "-p", "no:cacheprovider",
                            str(Path(__file__).with_name("test_mapping.py"))]) == 0
        preservation = len(goals) - recorded
        patch.setattr(chase, "decide_equal", recording)
        patch.chdir(tmp_path)
        for case in digest.gen.make_cases("read", 1, 100):
            Path(f"{case.name}.qinl").write_text(case.text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                main([case.command, f"{case.name}.qinl", *case.args])
    assert preservation >= 150 and len(goals) - recorded - preservation >= 200
    same = 0
    for args, kwargs, got in goals:
        want = egraph_decide_equal(*args, **kwargs)
        assert isinstance(got, Proved) or not isinstance(want, Proved), args
        same += decide_by_saturation(*args, **kwargs) == want
    assert same >= 0.9 * len(goals)


def test_semi_naive_matching_skips_old_matches(company_theory, monkeypatch):
    """The k = 25 manager proof calls `union` 88 times; instantiating every
    match every round, as before semi-naive matching, calls it 532 times."""
    calls = []
    union = EGraph.union

    def counting(self, *args):
        calls.append(args)
        return union(self, *args)

    a = App("worksIn", _managers(25, Var("x")))
    b = App("worksIn", Var("x"))
    ctx = Context.of(("x", Base("Emp")))
    monkeypatch.setattr(EGraph, "union", counting)
    assert isinstance(decide_by_saturation(company_theory, ctx, a, b, 32), Proved)
    assert len(calls) == 88
    calls.clear()
    monkeypatch.setattr(EGraph, "apply_equations_matched", match_every_root)
    assert isinstance(decide_by_saturation(company_theory, ctx, a, b, 32), Proved)
    assert len(calls) == 532


def _company_owner_theory():
    """company(x) = owner(y) leaves y free on each side, and
    tag(x) = tag(boss(x)) adds a new Emp class each round."""
    emp, co = Base("Emp"), Base("Co")
    sig = Signature.of({"Emp", "Co"}, {"company": (emp, co), "owner": (emp, co),
                                       "tag": (emp, co), "boss": (emp, emp)})
    x, y = Var("x"), Var("y")
    return Theory.of(sig, [
        Equation(Context.of(("x", emp), ("y", emp)), App("company", x), App("owner", y)),
        Equation(Context.of(("x", emp)), App("tag", x), App("tag", App("boss", x)))])


def _stale_key_theory():
    """In round 2, o1(x) = x merges the class of o1(c), made in round 1,
    into c's; the old match g(c) of the second equation then adds
    g(o2(o1(c))) through the stale key of o2(o1(c)), which makes a node."""
    sig = Signature.of({"A", "B"}, {"o1": (A, A), "o2": (A, A), "g": (A, B)})
    x = Var("x")
    return Theory.of(sig, [
        Equation(Context.of(("x", A)), App("o1", x), x),
        Equation(Context.of(("x", A)), App("g", x), App("g", App("o2", App("o1", x))))])


def _rekeyed_theory():
    """o1(x) = x merges o1(o2(a)) into the older class of o2(a) in round 1,
    and the rebuild re-keys the old node g(o1(o2(a))) to that class, where
    g(o2(x)) first matches it in round 2."""
    sig = Signature.of({"A", "B"}, {"o1": (A, A), "o2": (A, A), "g": (A, B),
                                    "h": (A, B), "k": (A, B)})
    x = Var("x")
    return Theory.of(sig, [
        Equation(Context.of(("x", A)), App("g", App("o2", x)), App("h", x)),
        Equation(Context.of(("x", A)), App("o1", x), x)])


@pytest.mark.parametrize("th, ctx, a, b", [
    (_company_owner_theory(), Context.of(("a", Base("Emp"))),
     App("company", Var("a")), App("tag", Var("a"))),
    (_stale_key_theory(), Context.of(("c", A), ("d", A)),
     App("g", Var("c")), App("g", Var("d"))),
    (_rekeyed_theory(), Context.of(("a", A)),
     App("g", App("o1", App("o2", Var("a")))), App("k", Var("a")))])
def test_semi_naive_matching_keeps_matches_that_can_still_add(monkeypatch, th, ctx, a, b):
    """A match whose nodes are old is still instantiated when the anchor
    leaves a variable free, whose classes have grown, when a key is stale,
    or when a rebuild has re-keyed one of its nodes: each adds a node that
    instantiating every match adds."""
    with monkeypatch.context() as patch:
        got, _ = _prove_recording(patch, th, ctx, a, b, 4)
    monkeypatch.setattr(EGraph, "apply_equations_matched", match_every_root)
    want, _ = _prove_recording(monkeypatch, th, ctx, a, b, 4)
    assert got == want
    assert isinstance(got[0], Unknown)


# --------------------------------------------------------------------------
# Compiled builders against the recursive walk.

def _features(term, images) -> set[str]:
    """The constructs `term`, in base normal form, exercises when it is
    added along `images`."""
    found = set()
    for sub in subterms(term):
        if isinstance(sub, Lit):
            found.add("literal")
        if isinstance(sub, App) and sub.op in images:
            var, body = images[sub.op]
            found.add("image" if Var(var) in subterms(body) else "image ignoring its variable")
            found.update(_features(body, {}))
            if any(isinstance(a, App) and a.op in images for a in subterms(sub.arg)):
                found.add("nested images")
    return found


def _add_pairs(sig, ctx, pairs, images, compiled: bool):
    """Add each pair of terms (along `images`) to a fresh graph and unite
    its sides, twice, with builtins and a rebuild after each pass: by
    builders compiled once, or by the recursive walk.  The node of each
    side, the node keys, the partition and the union log."""
    graph = HashConsed(sig, BUILTINS)
    env = [graph.add_node(("var", v), t) for v, t in ctx]
    binding = dict(zip(ctx.names(), env))
    slots = {v: k for k, v in enumerate(ctx.names())}
    builders = [(graph.builder(a, slots, images), graph.builder(b, slots, images))
                for a, b in pairs]
    added = []
    for _ in range(2):
        for k, (a, b) in enumerate(pairs):
            if compiled:
                sides = (builders[k][0](env), builders[k][1](env))
            else:
                sides = (add_by_walk(graph, a, binding, images),
                         add_by_walk(graph, b, binding, images))
            added.append(sides)
            graph.union(*sides, f"pair {k}")
        graph.fold_builtins()
        graph.rebuild()
    if compiled:
        check_egraph_indexes(graph)
    return (added, graph._nodes, [graph.find(n) for n in range(graph.node_count())],
            graph.log)


def test_builders_add_what_the_recursive_walk_adds():
    """Random terms with pairs, projections, units and literals, and random
    images, put in base normal form as `decide_equal` takes them, then added
    along the images: images that ignore their variable, and nested
    applications of operations with images.  Builders compiled once give
    the walk's nodes, node keys, partition and union log."""
    rng = random.Random(29)
    ctx = Context.of(("x", A), ("y", B), ("p", AB), ("s", STR))
    seen: dict[str, int] = {}
    for _ in range(300):
        sig = _random_signature(rng)
        images = {}
        for op, (dom, cod) in sig.operations.items():
            body = _random_term(rng, sig, Context.of(("v", dom)), cod, rng.randint(0, 3))
            if body is not None and rng.random() < 0.7:
                images[op] = ("v", body)
        images = normal_images(images) if rng.random() < 0.8 else None
        pairs, flat = [], ctx
        for _ in range(rng.randint(1, 6)):
            t = rng.choice(TYPES)
            a = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
            b = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
            if a is not None and b is not None:
                for part in Equation(ctx, a, b).normal():
                    flat = part.ctx
                    pairs.append((part.lhs, part.rhs))
                    for side in (part.lhs, part.rhs):
                        for feature in _features(side, images or {}):
                            seen[feature] = seen.get(feature, 0) + 1
        assert (_add_pairs(sig, flat, pairs, images, True)
                == _add_pairs(sig, flat, pairs, images, False))
    assert set(seen) == {"literal", "image", "image ignoring its variable",
                         "nested images"}
    assert min(seen.values()) >= 20


# --------------------------------------------------------------------------
# Base normal form against evaluation on finite instances.

def _random_value(rng: random.Random, t, rows: dict[str, list[str]]):
    if isinstance(t, Prod):
        return _random_value(rng, t.left, rows), _random_value(rng, t.right, rows)
    if t == UNIT:
        return UNIT_CELL
    if t == STR:
        return rng.choice(("", "ab", "ba", "aab"))
    return rng.randint(0, 3) if t == INT else rng.choice(rows[t.name])


def _components(value) -> list:
    """A value's base components, left to right: none for unit."""
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in _components(part)]
    return [] if value is UNIT_CELL else [value]


def test_normal_forms_evaluate_as_the_terms_they_come_from():
    """Random terms and equations with pairs, projections, units and
    product-typed variables, over operations between base types, on random
    finite instances: `eval_column` of a term at tupled values gives, as
    base components, `eval_column` of its normal form at the split values,
    and an equation holds exactly where each of its normal components
    holds."""
    rng = random.Random(7)
    sorts = (A, B, STR, AB, AA, UNIT, Prod(AB, UNIT))
    seen = {"pair": 0, "projection": 0, "unit": 0, "product variable": 0, "split": 0}
    for _ in range(800):
        sig = _random_signature(rng)
        s = FqlSchema(Theory.of(sig), frozenset({"A", "B"}), frozenset({"String", "Int"}))
        rows = {"A": [f"a{k}" for k in range(rng.randint(1, 3))],
                "B": [f"b{k}" for k in range(rng.randint(1, 3))]}
        i = Instance.make(rows, {op: {row: _random_value(rng, cod, rows) for row in rows[dom.name]}
                                 for op, (dom, cod) in sig.operations.items()
                                 if dom.name in rows})
        ctx = Context.of(*((v, rng.choice(sorts)) for v in ("x", "y", "z")[: rng.randint(1, 3)]))
        t = rng.choice(TYPES)
        a = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
        b = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
        if a is None or b is None:
            continue
        n = 6
        values = {v: [_random_value(rng, vt, rows) for _ in range(n)] for v, vt in ctx}
        flat, parts = normalise(ctx, a)
        split: dict[str, list] = {name: [] for name, _ in flat}
        for v, _ in ctx:
            names = [name for name, _ in flat if name.split(".")[0] == v]
            for leaves in map(_components, values[v]):
                for name, leaf in zip(names, leaves, strict=True):
                    split[name].append(leaf)
        original = eval_column(s, i, values, n, a)
        normal = [eval_column(s, i, split, n, part) for part in parts]
        assert [_components(v) for v in original] == [
            [column[k] for column in normal] for k in range(n)]
        holds = [x == y for x, y in zip(original, eval_column(s, i, values, n, b))]
        each = [[x == y for x, y in zip(eval_column(s, i, split, n, eq.lhs),
                                        eval_column(s, i, split, n, eq.rhs))]
                for eq in Equation(ctx, a, b).normal()]
        assert holds == [all(column[k] for column in each) for k in range(n)]
        kinds = {type(sub) for e in (a, b) for sub in subterms(e)}
        seen["pair"] += Pair in kinds
        seen["projection"] += bool(kinds & {Proj1, Proj2})
        seen["unit"] += UnitTerm in kinds
        seen["product variable"] += any(isinstance(vt, Prod) for _, vt in ctx)
        seen["split"] += len(Equation(ctx, a, b).normal()) > 1
    assert min(seen.values()) >= 20, seen
