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
    UnitTerm,
    Var,
    format_term,
    subterms,
)
from qinl.schema import FqlSchema

from conftest import company_schema
from oracles import (
    add_by_walk,
    check_egraph_indexes,
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
    word = Lit("String", "abc")
    decide_equal(company.theory, Context(), App("length", rev(rev(word))),
                 Lit("Int", 3), 8, company.builtin_ops())
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
    assert verdict == Unknown(1, fuel, fuel * 1000, "saturated")


# --------------------------------------------------------------------------
# Semi-naive matching against the oracle that instantiates every match.

A, B, STR, INT = Base("A"), Base("B"), Base("String"), Base("Int")
AB, AA = Prod(A, B), Prod(A, A)
TYPES = (A, B, STR, INT, AB, AA, UNIT)
BUILTINS = {"length": len, "reverse": lambda s: s[::-1]}
LITERALS = {STR: (Lit("String", "ab"), Lit("String", "ba")), INT: (Lit("Int", 2),)}


def _random_signature(rng: random.Random) -> Signature:
    ops = {"length": (STR, INT), "reverse": (STR, STR), "g": (A, B), "h": (A, A)}
    for i in range(rng.randint(1, 3)):
        ops[f"f{i}"] = (rng.choice((A, B, AB)), rng.choice((A, B, AB, STR)))
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
    """The verdict of `decide_equal`, its graph's node keys and partition,
    and every union that merged two classes, in order; then the number of
    `union` calls."""
    graphs, merges, calls = [], [], [0]
    union, run_rounds = EGraph.union, EGraph.run_rounds

    def recording_union(self, x, y, reason=""):
        calls[0] += 1
        merged = union(self, x, y, reason)
        if merged:
            merges.append((x, y, reason))
        return merged

    def capturing(self, *args):
        graphs.append(self)
        return run_rounds(self, *args)

    monkeypatch.setattr(EGraph, "union", recording_union)
    monkeypatch.setattr(EGraph, "run_rounds", capturing)
    verdict = decide_equal(th, ctx, a, b, fuel, builtin_ops=BUILTINS)
    graph = graphs[0]
    return (verdict, graph._nodes,
            [graph.find(n) for n in range(graph.node_count())], merges), calls[0]


def test_semi_naive_matching_equals_every_match_on_random_problems(monkeypatch):
    """Pairs, projections, literals, builtins, two-variable contexts and
    nonlinear patterns: the semi-naive pass ends with the verdict, node
    keys, partition and union log of instantiating every match each round.
    It skips matches, and it also meets stale keys after the first round,
    where unions of classes with parents precede a match."""
    rng = random.Random(13)
    union_sides = EGraph._union_sides
    stale = [0]

    def counting(self, instantiation, bound, since, reason, root=-1):
        if self._round > 1 and root >= 0 and self._pending:
            stale[0] += 1
        return union_sides(self, instantiation, bound, since, reason, root)

    problems = proved = calls = every_calls = 0
    while problems < 600:
        problem = _random_problem(rng)
        if problem is None:
            continue
        problems += 1
        with monkeypatch.context() as patch:
            patch.setattr(EGraph, "_union_sides", counting)
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


def test_semi_naive_matching_skips_old_matches(company_theory, monkeypatch):
    """The k = 25 manager proof calls `union` 111 times; instantiating every
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
    assert isinstance(decide_equal(company_theory, ctx, a, b, 32), Proved)
    assert len(calls) == 111
    calls.clear()
    monkeypatch.setattr(EGraph, "apply_equations_matched", match_every_root)
    assert isinstance(decide_equal(company_theory, ctx, a, b, 32), Proved)
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
    """The constructs `term` exercises when it is added along `images`."""
    kinds = {Pair: "pair", Proj1: "projection", Proj2: "projection",
             UnitTerm: "unit", Lit: "literal"}
    found = set()
    for sub in subterms(term):
        if type(sub) in kinds:
            found.add(kinds[type(sub)])
        if isinstance(sub, App) and sub.op in images:
            var, body = images[sub.op]
            uses = [b for b in subterms(body) if b == Var(var)]
            found.add({0: "image ignoring its variable", 1: "image"}.get(
                len(uses), "image using its variable twice"))
            found.update(_features(body, {}))
            if any(isinstance(a, App) and a.op in images for a in subterms(sub.arg)):
                found.add("nested images")
    return found


def _add_pairs(sig, ctx, pairs, images, compiled: bool):
    """Add each pair of terms (along `images`) to a fresh graph and unite
    its sides, twice, with the product axioms, builtins and a rebuild after
    each pass: by builders compiled once, or by the recursive walk.  The
    node of each side, the node keys, the partition and the union log."""
    graph = EGraph(sig, BUILTINS)
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
        graph.apply_product_axioms()
        graph.fold_builtins()
        graph.rebuild()
    if compiled:
        check_egraph_indexes(graph)
    return (added, graph._nodes, [graph.find(n) for n in range(graph.node_count())],
            graph.log)


def test_builders_add_what_the_recursive_walk_adds():
    """Random terms with pairs, projections, units and literals, added along
    random images: images that ignore their variable or use it twice, and
    nested applications of operations with images.  Builders compiled
    once give the walk's nodes, node keys, partition and union log."""
    rng = random.Random(29)
    ctx = Context.of(("x", A), ("y", B), ("p", AB), ("s", STR))
    seen: dict[str, int] = {}
    for _ in range(300):
        sig = _random_signature(rng)
        sig.operations["twice"] = (A, AA)
        images = {}
        for op, (dom, cod) in sig.operations.items():
            body = _random_term(rng, sig, Context.of(("v", dom)), cod, rng.randint(0, 3))
            if body is not None and rng.random() < 0.7:
                images[op] = ("v", body)
        if rng.random() < 0.5:
            images["twice"] = ("v", Pair(Var("v"), Var("v")))
        if rng.random() < 0.2:
            images = None
        pairs = []
        for _ in range(rng.randint(1, 6)):
            t = rng.choice(TYPES)
            a = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
            b = _random_term(rng, sig, ctx, t, rng.randint(0, 4))
            if a is not None and b is not None:
                pairs.append((a, b))
                for feature in _features(Pair(a, b), images or {}):
                    seen[feature] = seen.get(feature, 0) + 1
        assert (_add_pairs(sig, ctx, pairs, images, True)
                == _add_pairs(sig, ctx, pairs, images, False))
    assert set(seen) == {"pair", "projection", "unit", "literal", "image",
                         "image ignoring its variable",
                         "image using its variable twice", "nested images"}
    assert min(seen.values()) >= 20
