from __future__ import annotations

import random

import pytest

from qinl.chase import FuelExhausted, saturate
from qinl.equality import (
    EGraph,
    Equation,
    IllTyped,
    NODE_LIMIT,
    Proved,
    Theory,
    Unknown,
    check_theory,
    decide_equal,
    instantiate,
    node_cap,
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
    Var,
    format_term,
)
from qinl.schema import FqlSchema

from conftest import company_schema
from oracles import (
    check_egraph_indexes,
    find_countermodel,
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
    assert verdict.saturated


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
    assert verdict == Unknown(1, fuel, cap, saturated=True)


def test_ill_typed_goal_rejected(company_theory):
    ctx = Context.of(("x", Base("String")))
    with pytest.raises(IllTyped):
        decide_equal(company_theory, ctx, Var("x"),
                     App("length", Var("x")), 4)


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
    assert decide_equal(Theory.of(sig), ctx, a, b, 8) == Unknown(1, 8, 8000, saturated=True)


def test_instantiate_renames_context_variable(company_theory):
    sig = company_theory.sig
    eq = company_theory.equations[1]  # x = reverse(reverse(x))
    outer = Context.of(("e", Base("Emp")))
    lhs, rhs = instantiate(sig, eq, {"x": App("ename", Var("e"))}, outer)
    assert lhs == App("ename", Var("e"))
    assert rhs == rev(rev(App("ename", Var("e"))))


def test_instantiate_empty_context(company_theory):
    sig = company_theory.sig
    eq = Equation(Context(), UNIT_TERM, UNIT_TERM)
    assert instantiate(sig, eq, {}) == (UNIT_TERM, UNIT_TERM)


def test_instantiate_ill_typed_assignment(company_theory):
    eq = company_theory.equations[1]
    outer = Context.of(("e", Base("Emp")))
    with pytest.raises(IllTyped):
        instantiate(company_theory.sig, eq, {"x": Var("e")}, outer)


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
    """After every round of the prover and of the chase, the class index,
    the root lists and the hash-cons table equal what a sweep over the
    union-find recomputes: on the random theories of the fuel test, and on
    goals that exercise the product, unit and builtin axioms."""
    rebuild = EGraph.rebuild
    rounds = []

    def checked(graph):
        changed = rebuild(graph)
        check_egraph_indexes(graph)
        rounds.append(graph.node_count())
        return changed

    monkeypatch.setattr(EGraph, "rebuild", checked)
    rng = random.Random(41)
    for _ in range(80):
        th = _random_theory(rng)
        t = rng.choice(sorted(th.sig.base_types))
        a = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        b = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        if a is None or b is None or a[1] != b[1]:
            continue
        decide_equal(th, Context.of(("v", Base(t))), a[0], b[0], 6)
        schema = FqlSchema(th, frozenset(th.sig.base_types), frozenset())
        try:
            saturate(schema, {"g": t, "h": t}, [(Var("g"), Var("h"))], 6)
        except FuelExhausted:
            pass
    sig = Signature.of({"T1", "T2"}, {})
    pairs = Context.of(("e", Prod(Base("T1"), Base("T2"))),
                       ("x1", Base("T1")), ("x2", Base("T2")), ("u", UNIT))
    for a, b in ((Var("e"), Pair(Proj1(Var("e")), Proj2(Var("e")))),
                 (Proj2(Pair(Var("x1"), Var("x2"))), Var("x2")),
                 (Var("u"), UNIT_TERM)):
        decide_equal(Theory.of(sig), pairs, a, b, 4)
    company = company_schema()
    builtins = {name: company.builtins.ops[name]
                for name in company.builtin_op_names()}
    word = Lit("String", "abc")
    decide_equal(company.theory, Context(),
                 App("length", rev(rev(word))), Lit("Int", 3), 8, builtins)
    assert len(rounds) > 300


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
    verdict = decide_equal(company_theory, Context.of(("x", Base("Emp"))),
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
    assert verdict == Unknown(1, fuel, fuel * 1000, saturated=True)
