from __future__ import annotations

import random
from pathlib import Path

import pytest

from qinl import chase, equality, migration
from qinl.chase import (
    FuelExhausted,
    InconsistentConstants,
    UnstatedNull,
    initial_model,
    saturate,
)
from qinl.equality import Equation, IllTyped, Theory
from qinl.kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    UNIT,
    UNIT_TERM,
    Var,
)
from qinl.migration import pi, sigma
from qinl.schema import (
    BuiltinOp, BuiltinRegistry, FqlSchema, LabelledNull, OpApplied, check_instance)
from qinl.surface import elaborate, parse

from conftest import company_schema, entity_schema, nulls_case
from oracles import (
    EGraph,
    _subst,
    check_egraph_indexes,
    classes_of_type,
    egraph_applications,
    egraph_chase,
    egraph_entity_roots,
    egraph_initial_model,
    egraph_literals,
    enumerate_all_tuples,
    ground_closure,
    instantiating_chase,
    substitute_images,
    sweep_extract,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_self_manager_generator_saturates(company=None):
    """One generator with a self-manager equation: the employee chain
    collapses, one department appears, and the name is a labelled null."""
    s = company_schema()
    model = initial_model(s, {"e": "Emp"},
                          [(App("manager", Var("e")), Var("e"))], fuel=16)
    assert model.carriers["Emp"] == ("e",)
    assert model.carriers["Dept"] == ("e.worksIn",)
    assert model.functions["manager"]["e"] == "e"
    assert model.functions["worksIn"]["e"] == "e.worksIn"
    assert model.functions["ename"]["e"] == LabelledNull("0")


def test_initial_model_carries_a_fresh_null_along_builtins():
    """n(x) = length(w(x)): the fresh null goes to w, the cell that is no
    builtin application, and n holds its length, so the model satisfies
    its own equation (one null per class gave n and w unrelated nulls)."""
    sig = Signature.of({"U", "String", "Int"},
                       {"w": (Base("U"), Base("String")),
                        "n": (Base("U"), Base("Int")),
                        "length": (Base("String"), Base("Int"))})
    x = Var("x")
    equation = Equation(Context.of(("x", Base("U"))), App("n", x),
                        App("length", App("w", x)))
    s = FqlSchema(Theory.of(sig, [equation]), frozenset({"U"}),
                  frozenset({"String", "Int"}))
    model = initial_model(s, {"x": "U"}, fuel=8)
    assert model.functions["w"] == {"x": LabelledNull("0")}
    assert model.functions["n"] == {"x": OpApplied("length", LabelledNull("0"))}
    assert check_instance(s, model).all_ok


def test_chase_example_matches_ground_closure_oracle():
    """The brute-force closure over the depth-3 ground universe produces
    exactly the classes the chase materialized."""
    s = company_schema()
    generators = {"e": "Emp"}
    ground = [(App("manager", Var("e")), Var("e"))]
    universe, find = ground_closure(s.sig, generators, ground,
                                    s.theory, depth=3)
    e = Var("e")
    assert find(App("manager", e)) == find(e)
    assert find(App("manager", App("manager", e))) == find(e)
    assert find(App("worksIn", App("manager", e))) == find(App("worksIn", e))
    emp_terms = {t for t in universe if find(t) == find(e)}
    assert App("manager", App("manager", e)) in emp_terms
    # distinct classes for distinct sorts
    assert find(App("worksIn", e)) != find(e)


def test_chase_output_satisfies_theory():
    s = company_schema()
    model = initial_model(s, {"e": "Emp"},
                          [(App("manager", Var("e")), Var("e"))], fuel=16)
    assert check_instance(s, model, sample_size=16).all_ok


def test_no_generators_gives_empty_instance():
    s = company_schema()
    model = initial_model(s, {}, [], fuel=4)
    assert model.carriers == {"Dept": (), "Emp": ()}
    assert all(table == {} for table in model.functions.values())


def test_unconstrained_manager_chain_exhausts_fuel():
    s = company_schema()
    with pytest.raises(FuelExhausted) as exc:
        initial_model(s, {"e": "Emp"}, [], fuel=5)
    assert exc.value.partial_size >= 5


def test_each_round_grows_the_unconstrained_chain():
    """Three fuel levels give strictly growing partial models: a fresh
    employee appears per round."""
    s = company_schema()
    sizes = []
    for fuel in (2, 3, 4):
        with pytest.raises(FuelExhausted) as exc:
            initial_model(s, {"e": "Emp"}, [], fuel=fuel)
        sizes.append(exc.value.partial_size)
    assert sizes[0] < sizes[1] < sizes[2]


def test_unconstrained_next_chain_message_at_fuel_24():
    """The message (and so the partial model size) the unindexed chase
    gave: one fresh element per round, which the message names as what
    grew."""
    s = entity_schema({"P"}, {"next": ("P", "P")})
    with pytest.raises(FuelExhausted) as exc:
        initial_model(s, {"p": "P"}, [], fuel=24)
    assert str(exc.value) == (
        "chase did not saturate within fuel (partial model size 25; "
        "P grew by 1 in the last round)")


def test_fuel_exhausted_names_the_type_that_grew():
    """The divergent typeside: each round reverses the newest null string,
    one more String class, while the lengths stay one Int class."""
    sig = Signature.of({"U", "String", "Int"},
                       {"w": (Base("U"), Base("String")),
                        "length": (Base("String"), Base("Int")),
                        "reverse": (Base("String"), Base("String"))})
    x = Var("x")
    equation = Equation(Context.of(("x", Base("String"))),
                        App("length", App("reverse", x)), App("length", x))
    s = FqlSchema(Theory.of(sig, [equation]), frozenset({"U"}),
                  frozenset({"String", "Int"}))
    for fuel in (8, 64):
        with pytest.raises(FuelExhausted) as exc:
            initial_model(s, {"u": "U"}, fuel=fuel)
        assert str(exc.value) == (
            "chase did not saturate within fuel (partial model size 1; "
            "String grew by 1 in the last round)")


def test_ground_attribute_values_are_used():
    s = company_schema()
    model = initial_model(
        s, {"e": "Emp"},
        [(App("manager", Var("e")), Var("e")),
         (App("ename", Var("e")), Lit("String", "abba"))], fuel=16)
    assert model.functions["ename"]["e"] == "abba"


def test_equated_attribute_cells_share_a_null():
    s = entity_schema_with_attr()
    model = initial_model(
        s, {"a": "E", "b": "E"},
        [(App("label", Var("a")), App("label", Var("b")))], fuel=8)
    assert model.functions["label"]["a"] == model.functions["label"]["b"]
    assert isinstance(model.functions["label"]["a"], LabelledNull)


def entity_schema_with_attr():
    sig = Signature.of({"E", "String"},
                       {"label": (Base("E"), Base("String"))})
    return type(company_schema())(Theory.of(sig), frozenset({"E"}),
                                  frozenset({"String"}))


def test_generator_merging_by_ground_equation():
    s = entity_schema({"E"}, {})
    model = initial_model(s, {"a": "E", "b": "E"},
                          [(Var("a"), Var("b"))], fuel=4)
    assert len(model.carriers["E"]) == 1


def test_distinct_constants_equated_is_inconsistent():
    s = entity_schema_with_attr()
    with pytest.raises(InconsistentConstants):
        initial_model(
            s, {"a": "E"},
            [(App("label", Var("a")), Lit("String", "x")),
             (App("label", Var("a")), Lit("String", "y"))], fuel=8)


def test_ill_typed_ground_equation_rejected():
    s = company_schema()
    with pytest.raises(IllTyped):
        initial_model(s, {"e": "Emp"},
                      [(Var("e"), App("ename", Var("e")))], fuel=4)


def test_undeclared_generator_type_rejected():
    s = company_schema()
    with pytest.raises(IllTyped):
        initial_model(s, {"e": "Ghost"}, [], fuel=4)


def test_collapsing_equation_theory_saturates():
    """manager(manager(x)) = manager(x) bounds the chain at depth one."""
    sig = Signature.of({"E"}, {"boss": (Base("E"), Base("E"))})
    idem = Equation(Context.of(("x", Base("E"))),
                    App("boss", App("boss", Var("x"))), App("boss", Var("x")))
    s = entity_schema({"E"}, {"boss": ("E", "E")}, [idem])
    model = initial_model(s, {"e": "E"}, [], fuel=8)
    assert model.carriers["E"] == ("e", "e.boss")
    assert model.functions["boss"] == {"e": "e.boss", "e.boss": "e.boss"}
    assert check_instance(s, model).all_ok


def test_universal_property_desk_scale():
    """The chase result maps uniquely into any instance satisfying the
    theory, once the generators' images are chosen."""
    from qinl.migration import enumerate_homs
    sig = Signature.of({"E"}, {"boss": (Base("E"), Base("E"))})
    idem = Equation(Context.of(("x", Base("E"))),
                    App("boss", App("boss", Var("x"))), App("boss", Var("x")))
    s = entity_schema({"E"}, {"boss": ("E", "E")}, [idem])
    free = initial_model(s, {"e": "E"}, [], fuel=8)

    from qinl.schema import Instance
    targets = [
        Instance.make({"E": ["u"]}, {"boss": {"u": "u"}}),
        Instance.make({"E": ["u", "v"]}, {"boss": {"u": "v", "v": "v"}}),
        Instance.make({"E": ["u", "v", "w"]},
                      {"boss": {"u": "v", "v": "v", "w": "w"}}),
    ]
    for target in targets:
        assert check_instance(s, target).all_ok
        homs = enumerate_homs(s, free, target)
        # one homomorphism per choice of image for the generator
        by_seed = {}
        for hom in homs:
            by_seed.setdefault(hom.apply("E", "e"), []).append(hom)
        assert set(by_seed) == set(target.rows("E"))
        assert all(len(group) == 1 for group in by_seed.values())


def _random_chases():
    """(schema, generators, ground equations) over varied collapsing
    schemas, 40 of them, from a fixed seed."""
    rng = random.Random(77)
    idem = lambda op: Equation(Context.of(("x", Base("E"))),
                               App(op, App(op, Var("x"))), App(op, Var("x")))
    schemas = [
        entity_schema({"E"}, {}),
        entity_schema({"E"}, {"boss": ("E", "E")}, [idem("boss")]),
        entity_schema({"E", "F"}, {"f": ("E", "F")}),
        entity_schema({"E", "F"}, {"f": ("E", "F"), "g": ("E", "E")},
                      [idem("g")]),
    ]
    for _ in range(40):
        s = rng.choice(schemas)
        gen_count = rng.randint(0, 3)
        generators = {f"e{k}": "E" for k in range(gen_count)}
        equations = []
        if gen_count >= 2 and rng.random() < 0.5:
            equations.append((Var("e0"), Var("e1")))
        yield s, generators, equations


def test_randomized_chase_outputs_satisfy_their_theories():
    """Free models over varied collapsing schemas always pass the
    satisfaction check when the chase saturates."""
    saturated = 0
    for s, generators, equations in _random_chases():
        try:
            model = initial_model(s, generators, equations, fuel=12)
        except FuelExhausted:
            continue
        saturated += 1
        assert check_instance(s, model).all_ok
    assert saturated >= 30


def test_initial_model_refuses_a_null_tied_to_a_constant():
    """length(w(x)) = 2 ties w's null to strings of length 2, which no cell
    can state; initial_model raises what sigma raises instead of returning
    `w = ?0`, which breaks the equation."""
    sig = Signature.of({"U", "String", "Int"},
                       {"w": (Base("U"), Base("String")),
                        "length": (Base("String"), Base("Int"))})
    x = Var("x")
    equation = Equation(Context.of(("x", Base("U"))),
                        App("length", App("w", x)), Lit("Int", 2))
    s = FqlSchema(Theory.of(sig, [equation]), frozenset({"U"}),
                  frozenset({"String", "Int"}))
    with pytest.raises(UnstatedNull, match=r"length\(\?0\) = 2"):
        initial_model(s, {"x": "U"}, fuel=8)


# --------------------------------------------------------------------------
# The chase on tables against the chase on the e-graph; the e-graph's
# semi-naive pass against its all-tuples loop, and extraction against the
# sweep that builds every term.


def _chase_with(enumerate_pass, s, generators, equations, fuel, images=None):
    """`egraph_chase` with `enumerate_pass` as the e-graph's enumeration pass:
    the graph it ends with, its round count, and its FuelExhausted message
    (None when it saturates)."""
    graphs = []

    def spy(graph, eqs, since=0):
        graphs.append(graph)
        enumerate_pass(graph, eqs, since)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EGraph, "apply_equations_enumerated", spy)
        try:
            egraph_chase(s, generators, equations, fuel, images)
            error = None
        except FuelExhausted as exc:
            error = str(exc)
    return graphs[-1], len(graphs), error


def _partition(graph) -> list[int]:
    return [graph.find(node) for node in range(graph.node_count())]


def assert_tables_match_egraph(s, generators, equations=(), fuel=8,
                               images=None) -> None:
    """The chase on tables gives the outcome of `egraph_chase`: the model
    (its rows, row names, cells and nulls) or the exception with its
    message.  The ids are its node ids: each id has the same root, and the
    literals, their clash and the builtin applications are the same."""
    assert (_outcome(lambda: initial_model(s, generators, equations, fuel, images))
            == _outcome(lambda: egraph_initial_model(s, generators, equations, fuel,
                                                     images)))
    try:
        tables = saturate(s, generators, equations, fuel, images)
        graph = egraph_chase(s, generators, equations, fuel, images)
    except EngineError:
        return
    assert [tables.find(node) for node in range(len(tables.parent))] == _partition(graph)
    assert _outcome(tables.literals) == _outcome(lambda: egraph_literals(graph))
    assert tables.applications() == egraph_applications(graph)


def assert_chase_matches_oracles(s, generators, equations=(), fuel=8,
                                 images=None) -> None:
    """The chase on tables matches the chase on the e-graph, whose
    semi-naive pass ends with the nodes, classes, round count and outcome
    of the all-tuples loop, a saturated graph's extraction at its entity
    roots agrees with the sweep and its indexes with theirs, and
    `initial_model`, which computes constants, gives the model (or raises
    the error) of the chase that instantiates every tuple instead."""
    assert_tables_match_egraph(s, generators, equations, fuel, images)
    graph, rounds, error = _chase_with(
        EGraph.apply_equations_enumerated, s, generators, equations, fuel, images)
    want, want_rounds, want_error = _chase_with(
        enumerate_all_tuples, s, generators, equations, fuel, images)
    assert (rounds, error) == (want_rounds, want_error)
    assert graph._nodes == want._nodes
    assert _partition(graph) == _partition(want)
    if error is None:
        assert_extract_matches_the_sweep(graph, egraph_entity_roots(graph, s))
        if graph.node_count():
            check_egraph_indexes(graph)
    assert (_outcome(lambda: initial_model(s, generators, equations, fuel, images))
            == _outcome(lambda: instantiating_chase(s, generators, equations, fuel,
                                                    images)))


def _migration_chases(run) -> list[tuple]:
    """The arguments of every `saturate` call `run()` makes through the
    migrations, directly or through `initial_model`; a migration that fails
    is left failed."""
    calls = []

    def record(*args):
        calls.append(args)
        return saturate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(migration, "saturate", record)
        patch.setattr(chase, "saturate", record)
        try:
            run()
        except EngineError:
            pass
    return calls


def test_semi_naive_chase_matches_all_tuples_on_fixture_migrations():
    calls = []
    for path in sorted(FIXTURES.glob("*.qinl")):
        elab = elaborate(parse(path.read_text(encoding="utf-8")))
        for mapping in elab.mappings.values():
            for name, i in elab.instances.items():
                if elab.schemas.get(elab.instance_schema[name]) != mapping.source:
                    continue
                for migrate in (sigma, pi):
                    calls += _migration_chases(lambda: migrate(mapping, i))
    assert len(calls) >= 10
    for args in calls:
        assert_chase_matches_oracles(*args)


def test_semi_naive_chase_matches_all_tuples_on_random_chases():
    for s, generators, equations in _random_chases():
        assert_chase_matches_oracles(s, generators, equations, fuel=12)


def test_semi_naive_chase_matches_all_tuples_on_migrations_with_nulls():
    rng = random.Random(5)
    calls = []
    for _ in range(50):
        schemas, rest = nulls_case(rng)
        elab = elaborate(parse(schemas + rest))
        mapping, i = elab.mappings["M"], elab.instances["I"]
        for migrate in (sigma, pi):
            calls += _migration_chases(lambda: migrate(mapping, i, fuel=8))
    assert len(calls) >= 100
    for args in calls:
        assert_chase_matches_oracles(*args)


# --------------------------------------------------------------------------
# sigma seeds its chase through the mapping's images, against seeding with
# the translated terms as typed ground equations.


def _outcome(run):
    try:
        return run()
    except EngineError as exc:
        return type(exc).__name__, str(exc)


def assert_seeding_matches_substitution(mapping, i, fuel=32) -> None:
    """The chase `sigma` seeds through the images ends with the nodes,
    classes, round count and outcome of the chase seeded with
    `substitute_images`, and `sigma` returns what `initial_model` gives (or
    raises what it raises) for those seeds."""
    (args,) = _migration_chases(lambda: sigma(mapping, i, fuel=fuel))
    s, generators, equations, fuel, images = args
    assert images is mapping.op_map
    assert_tables_match_egraph(*args)
    seeds = substitute_images(s, generators, equations, images)
    graph, rounds, error = _chase_with(
        EGraph.apply_equations_enumerated, s, generators, equations, fuel, images)
    want, want_rounds, want_error = _chase_with(
        EGraph.apply_equations_enumerated, s, generators, seeds, fuel)
    assert (rounds, error) == (want_rounds, want_error)
    assert graph._nodes == want._nodes
    assert _partition(graph) == _partition(want)
    assert (_outcome(lambda: sigma(mapping, i, fuel=fuel))
            == _outcome(lambda: initial_model(s, generators, seeds, fuel)))


def test_sigma_seeds_through_images_on_fixture_mappings():
    seen = 0
    for path in sorted(FIXTURES.glob("*.qinl")):
        elab = elaborate(parse(path.read_text(encoding="utf-8")))
        for mapping in elab.mappings.values():
            for name, i in elab.instances.items():
                if elab.schemas.get(elab.instance_schema[name]) == mapping.source:
                    assert_seeding_matches_substitution(mapping, i)
                    seen += 1
    assert seen >= 5


def test_sigma_seeds_through_images_on_migrations_with_nulls():
    rng = random.Random(5)
    for _ in range(50):
        schemas, rest = nulls_case(rng)
        elab = elaborate(parse(schemas + rest))
        assert_seeding_matches_substitution(elab.mappings["M"], elab.instances["I"], 8)


@pytest.mark.parametrize("u", ['"a"', "name(f(g(x)))"])
def test_sigma_seeds_through_constant_and_nested_images(u):
    """`p` maps to a nested image, and `u` to a constant that ignores its
    variable, so that its seeds equate "a" with a null and with "b", or to
    a nested image, so that the cells are the source's values."""
    elab = elaborate(parse(f"""
        schema S = {{ entities A, B; attributes String;
          operations p : A -> B, u : A -> String; }}
        schema T = {{ entities C, D; attributes String;
          operations g : C -> D, f : D -> C, name : C -> String;
          equations forall x: C . f(g(f(g(x)))) = f(g(x)); }}
        mapping M : S -> T = {{ A -> C; B -> C; p -> (x => f(g(x)));
          u -> (x => {u}); }}
        instance I : S = {{ A = {{ a1, a2, a3 }}; B = {{ b1, b2 }};
          p = {{ a1 -> b1, a2 -> b1, a3 -> b2 }};
          u = {{ a1 -> "a", a2 -> ?0, a3 -> "b" }}; }}
        """))
    assert_seeding_matches_substitution(elab.mappings["M"], elab.instances["I"])


SEED_TARGET = """
schema T = { entities C, D; attributes String, Int;
  operations g : C -> D, f : D -> C, n : C -> String,
    length : String -> Int, reverse : String -> String;
  equations forall x: C . f(g(f(g(x)))) = f(g(x));
    forall s: String . s = reverse(reverse(s)); }
"""

# Each case is a source schema, a mapping M into T and an instance I.
SEED_CASES = {
    "paths_and_a_builtin_on_top": """
schema S = { entities A, B; attributes String, Int;
  operations p : A -> B, u : A -> Int, w : A -> String; }
mapping M : S -> T = { A -> C; B -> C; p -> (x => f(g(x)));
  u -> (x => length(n(x))); w -> (x => reverse(n(f(g(x))))); }
instance I : S = { A = { a1, a2, a3 }; B = { b1, b2 };
  p = { a1 -> b1, a2 -> b1, a3 -> b2 };
  u = { a1 -> 2, a2 -> 2, a3 -> 5 };
  w = { a1 -> "ab", a2 -> "ba", a3 -> "ab" }; }
""",
    "constant_bodies": """
schema S = { entities A; attributes String, Int;
  operations u : A -> String, k : A -> Int; }
mapping M : S -> T = { A -> C; u -> (x => "ab"); k -> (x => length(reverse("abc"))); }
instance I : S = { A = { a1, a2, a3 };
  u = { a1 -> "ab", a2 -> ?0, a3 -> "ba" }; k = { a1 -> 3, a2 -> 3, a3 -> ?1 }; }
""",
    "two_operations_into_one": """
schema S = { entities A, B; attributes String;
  operations p : A -> B, q : A -> B, u : A -> String, v : A -> String; }
mapping M : S -> T = { A -> C; B -> D;
  p -> (x => g(x)); q -> (x => g(x)); u -> (x => n(x)); v -> (x => n(x)); }
instance I : S = { A = { a, b, c }; B = { a, d };
  p = { a -> a, b -> a, c -> d }; q = { a -> d, b -> a, c -> d };
  u = { a -> "x", b -> ?0, c -> "y" }; v = { a -> "x", b -> "z", c -> ?1 }; }
""",
    "bare_variable_image": """
schema S = { entities A, B; operations p : A -> B; }
mapping M : S -> T = { A -> C; B -> C; p -> (x => x); }
instance I : S = { A = { a1, a2 }; B = { b1 }; p = { a1 -> b1, a2 -> b1 }; }
""",
    "a_merged_row_keys_entries": """
schema S = { entities A, B; attributes String;
  operations au : A -> String, bv : B -> String, p : A -> B; }
mapping M : S -> T = { A -> C; B -> C; au -> (x => n(x)); bv -> (x => n(x)); p -> (x => x); }
instance I : S = { A = { a1, a2 }; B = { b1, b2 };
  au = { a1 -> "x", a2 -> "y" }; bv = { b1 -> ?0, b2 -> "y" }; p = { a1 -> b1, a2 -> b2 }; }
""",
    "nulls_and_symbolic_cells": """
schema S = { entities A; attributes String, Int;
  operations u : A -> String, k : A -> Int, w : A -> String,
    length : String -> Int, reverse : String -> String; }
mapping M : S -> T = { A -> C; u -> (x => n(x)); k -> (x => length(n(x)));
  w -> (x => reverse(n(x))); }
instance I : S = { A = { a1, a2, a3 };
  u = { a1 -> ?0, a2 -> ?1, a3 -> "abc" };
  k = { a1 -> length(?0), a2 -> length(reverse(?1)), a3 -> 3 };
  w = { a1 -> reverse(?0), a2 -> ?2, a3 -> "cba" }; }
""",
}


@pytest.mark.parametrize("case", SEED_CASES)
def test_column_seeding_matches_the_egraph_chase(case):
    """`sigma` hands the chase one column per source operation: image paths
    of one to three operations, constant bodies, a builtin on top, a top
    entry that an earlier operation added, literals met first after their
    image, a bare variable for a body that merges rows keying entries,
    labelled nulls and symbolic cells.
    The chase ends with the ids, roots, literals and builtin entries of
    `egraph_chase`, and with its model or error, as with the seeds written
    as ground equations."""
    elab = elaborate(parse(SEED_TARGET + SEED_CASES[case]))
    assert not elab.diagnostics
    assert_seeding_matches_substitution(elab.mappings["M"], elab.instances["I"])


def test_a_builtin_entry_is_folded_again_when_its_argument_gains_a_lower_literal():
    """Round 1 merges rows a and b (h(a) = b under h(x) = x), adds the
    `length` entry at n(a)'s class only and folds it at "abc"; re-keying
    then merges in n(b)'s class, whose "xy" is the older literal.  Round 2
    folds the entry again at "xy", adding 2 beside 3, and the chase ends
    as the e-graph's does, with the clash named by the same first literals."""
    elab = elaborate(parse("""
        schema S = { entities A; attributes String;
          operations early : A -> String, q : A -> A, u : A -> String; }
        schema T = { entities C; attributes String, Int;
          operations h : C -> C, k : C -> Int, m : C -> String, n : C -> String,
            length : String -> Int;
          equations forall x: C . h(x) = x; forall x: C . k(x) = length(n(x)); }
        mapping M : S -> T = { A -> C; early -> (x => m(x)); q -> (x => h(x));
          u -> (x => n(x)); }
        instance I : S = { A = { a, b }; early = { a -> "xy", b -> "xy" };
          q = { a -> b, b -> b }; u = { a -> "abc", b -> "xy" }; }
        """))
    (args,) = _migration_chases(lambda: sigma(elab.mappings["M"], elab.instances["I"]))
    tables = saturate(*args)
    assert sorted(tables.values[lit] for lits in tables.lits.values() for lit in lits
                  if isinstance(tables.values[lit], int)) == [2, 3]
    assert_seeding_matches_substitution(elab.mappings["M"], elab.instances["I"])


def _stopped_sigma(text: str, fuel: int) -> tuple[str, int, int]:
    """The FuelExhausted message of `sigma` on `text`'s I along M, with the
    ids the chase made and the tuples it visited."""
    elab = elaborate(parse(text))
    tables = []
    run = equality.EGraph.run

    def recording(self, *args):
        tables.append(self)
        return run(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equality.EGraph, "run", recording)
        with pytest.raises(FuelExhausted) as caught:
            sigma(elab.mappings["M"], elab.instances["I"], fuel=fuel)
    [stopped] = tables
    return str(caught.value), len(stopped.parent), chase.CHASE_TUPLES - stopped.tuples_left


def test_sigma_stops_at_the_same_tuple_and_id_under_both_caps():
    """Seeded through columns, sigma stops where it stopped when each seed
    was added as a term.  400 rows chained by `m`, under an equation that
    adds a class per row, pass the node cap of fuel 2 at id 2,000, on the
    401st tuple; 60 such rows under an equation of three binders pass the
    tuple cap on its 100,001st tuple, with 120 ids."""
    rows = [f"r{i:03d}" for i in range(400)]

    def chained(n: int, target: str) -> str:
        return (f"schema P = {{ entities E; operations m : E -> E; }}\n{target}\n"
                "mapping M : P -> S = { E -> E; m -> (x => m(x)); }\n"
                f"instance I : P = {{ E = {{ {', '.join(rows[:n])} }}; m = {{ "
                + ", ".join(f"{rows[k]} -> {rows[(k + 1) % n]}" for k in range(n))
                + " }; }\n")

    branches = chained(400, "schema S = { entities E; operations m : E -> E, f : E -> E, "
                            "g : E -> E; equations forall x: E . g(f(x)) = m(x); }")
    assert _stopped_sigma(branches, 2) == (
        "chase did not saturate within the node cap of 2000 nodes (partial model "
        "size 1201; E grew by 801 in the last round)", 2001, 401)
    wide = chained(60, "schema S = { entities E; operations m : E -> E; "
                       "equations forall x: E, y: E, z: E . x = x; }")
    assert _stopped_sigma(wide, 1) == (
        "chase did not saturate within the tuple cap of 100000 tuples (partial "
        "model size 60)", 120, 100_001)


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_semi_naive_chase_matches_all_tuples_on_two_variables_and_none(order):
    """g(x) = h(y) for all x, y: the chain equation makes new F classes
    in the first pass, which the second pass pairs with the older E root,
    whichever variable comes first.  The equation with an empty context is
    instantiated in the first pass only, and adds its string literals."""
    sig = Signature.of({"E", "F", "G", "String"},
                       {"g": (Base("E"), Base("G")),
                        "h": (Base("F"), Base("G")),
                        "s": (Base("F"), Base("F")),
                        "name": (Base("G"), Base("String")),
                        "reverse": (Base("String"), Base("String"))})
    x, y = Var("x"), Var("y")
    binders = {"x": ("x", Base("E")), "y": ("y", Base("F"))}
    two = Equation(Context.of(*(binders[v] for v in order)), App("g", x), App("h", y))
    chain = Equation(Context.of(("y", Base("F"))),
                     App("s", App("s", App("s", y))), App("s", App("s", y)))
    closed = Equation(Context(), App("reverse", Lit("String", 'a"b')),
                      Lit("String", 'b"a'))
    s = FqlSchema(Theory.of(sig, [two, chain, closed]),
                  frozenset({"E", "F", "G"}), frozenset({"String"}))
    assert_chase_matches_oracles(s, {"a": "E", "b": "F"})
    assert_chase_matches_oracles(s, {"a": "E", "b": "F", "c": "F"})
    graph, _, error = _chase_with(
        EGraph.apply_equations_enumerated, s, {"a": "E", "b": "F"}, (), 8)
    assert error is None
    assert len(classes_of_type(graph, Base("G"))) == 1
    reps = graph.extract(egraph_entity_roots(graph, s))
    assert App("g", Var("a")) in reps.values()
    assert graph._table.get(("lit", "String", 'a"b')) is not None
    assert graph._table.get(("lit", "String", 'b"a')) is not None


def test_enumeration_visits_only_tuples_with_a_new_root(monkeypatch):
    """On a rebuilt graph, a pass adds no instance of its equations at old
    roots; a new root gets the tuples it is in, in the order of the full
    product, and the equation with an empty context gets none."""
    sig = Signature.of({"E", "String"}, {"f": (Base("E"), Base("E")),
                                         "reverse": (Base("String"), Base("String"))})
    x, y = Var("x"), Var("y")
    equations = [
        Equation(Context.of(("x", Base("E")), ("y", Base("E"))),
                 App("f", x), App("f", y)),
        Equation(Context(), App("reverse", Lit("String", "ab")), Lit("String", "ba"))]
    # Each side compiles once per graph, in the first pass, so the spy that
    # records the classes each left side is added at wraps the compiled
    # builders from the start, and what the first pass records is dropped.
    visited = []
    builder = EGraph.builder

    def spy(self, e, slots, images=None):
        build = builder(self, e, slots, images)
        if not any(e is eq.lhs for eq in equations):
            return build

        def recording(env):
            visited.append(tuple(env))
            return build(env)
        return recording

    monkeypatch.setattr(EGraph, "builder", spy)
    graph = EGraph(sig)
    a = graph.add_node(("var", "a"), Base("E"))
    b = graph.add_node(("var", "b"), Base("E"))
    graph.apply_equations_enumerated(equations)
    graph.rebuild()
    fa = graph.find(graph.add_node(("app", "f", a)))

    visited.clear()
    since = graph.node_count()
    graph.apply_equations_enumerated(equations, since)
    assert visited == []
    c = graph.add_node(("var", "c"), Base("E"))
    graph.apply_equations_enumerated(equations, since)
    assert visited == [(a, c), (b, c), (fa, c), (c, a), (c, b), (c, fa), (c, c)]


def test_semi_naive_chase_visits_old_tuples_while_a_key_is_stale():
    """o1(x) = x merges classes in the second pass before the second
    equation reaches the older roots; their instances then meet stale
    keys and add nodes, so they are visited, as the all-tuples loop does."""
    x = Var("x")
    x_e = Context.of(("x", Base("E")))
    s = entity_schema({"E"}, {"o0": ("E", "E"), "o1": ("E", "E"), "o2": ("E", "E")},
                      [Equation(x_e, App("o1", x), x),
                       Equation(x_e, App("o1", App("o2", x)),
                                App("o2", App("o1", App("o0", x))))])
    ground = [(Var("g1"), Var("g0")), (App("o2", Var("g1")), Var("g1"))]
    assert_chase_matches_oracles(s, {"g0": "E", "g1": "E"}, ground, fuel=2)


def test_semi_naive_chase_computes_again_where_a_class_gains_a_literal():
    """The seeds build k(b) and inc(k(b)) up to inc^3(k(b)) before k(a), so
    these classes are old in the second round.  None holds a literal in the
    first pass, which instantiates inc^4(n) = inc^3(n) at them; the first
    round then gives k(a) the literal 0 and merges it into k(b).  The
    second pass computes the equation at k(b), adding the literals 2 and 3
    before the nodes it instantiates at the new class k(h(a)), as the
    all-tuples loop does; skipping k(b) would leave them to
    `fold_builtins`, after those nodes."""
    builtins = BuiltinRegistry(
        {"Int": int}, {"inc": BuiltinOp("Int", "Int", lambda n: min(n + 1, 3))},
        {"Int": (0, 1, 2, 3)})
    u, n, x = Base("U"), Var("n"), Var("x")
    sig = Signature.of({"U", "Int"}, {"f": (u, u), "h": (u, u), "g": (u, Base("Int")),
                                      "k": (u, Base("Int")),
                                      "inc": (Base("Int"), Base("Int"))})
    x_u = Context.of(("x", u))

    def inc(e, times):
        return e if times == 0 else App("inc", inc(e, times - 1))

    s = FqlSchema(Theory.of(sig, [
        Equation(Context.of(("n", Base("Int"))), inc(n, 4), inc(n, 3)),
        Equation(x_u, App("f", x), x),
        Equation(x_u, App("g", x), Lit("Int", 0)),
        Equation(x_u, App("h", App("h", x)), App("h", x))]),
        frozenset({"U"}), frozenset({"Int"}), builtins)
    ka, kb = App("k", Var("a")), App("k", Var("b"))
    ground = [(inc(kb, 3), inc(kb, 3)), (ka, ka), (App("g", Var("a")), ka),
              (App("f", Var("b")), Var("a"))]
    assert_chase_matches_oracles(s, {"a": "U", "b": "U"}, ground)
    model = initial_model(s, {"a": "U", "b": "U"}, ground, 8)
    assert model.functions["k"] == {"a": 0, "a.h": LabelledNull("0")}


def assert_extract_matches_the_sweep(graph, roots: list[int]) -> None:
    """`extract` at `roots` gives each of them the term the sweep picks."""
    got, want = graph.extract(roots), sweep_extract(graph)
    assert ({root: got.get(root) for root in roots}
            == {root: want.get(root) for root in roots})


def test_extract_at_roots_matches_the_sweep():
    """At the roots `egraph_materialize` asks for, on the e-graph chases of
    the fixture migrations and of migrations with nulls."""
    chases = []
    for path in sorted(FIXTURES.glob("*.qinl")):
        elab = elaborate(parse(path.read_text(encoding="utf-8")))
        for mapping in elab.mappings.values():
            for name, i in elab.instances.items():
                if elab.schemas.get(elab.instance_schema[name]) == mapping.source:
                    for migrate in (sigma, pi):
                        chases += _migration_chases(lambda: migrate(mapping, i))
    rng = random.Random(5)
    for _ in range(20):
        schemas, rest = nulls_case(rng)
        elab = elaborate(parse(schemas + rest))
        for migrate in (sigma, pi):
            chases += _migration_chases(
                lambda: migrate(elab.mappings["M"], elab.instances["I"], fuel=8))
    calls = []
    record = EGraph.extract

    def spy(graph, roots):
        roots = list(roots)
        calls.append((graph, roots))
        return record(graph, roots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EGraph, "extract", spy)
        for args in chases:
            _outcome(lambda: egraph_initial_model(*args))
    assert len(calls) >= 40
    for graph, roots in calls:
        assert_extract_matches_the_sweep(graph, roots)


# --------------------------------------------------------------------------
# Product-typed binders range over tuples of roots.


def _expanded(eq: Equation) -> Equation:
    """`eq` with each binder of product or unit type replaced by a binder
    per base component: `p : E * F` becomes `(p.1, p.2)`, two variables."""
    ctx: list = []

    def split(name, t):
        if isinstance(t, Prod):
            return Pair(split(f"{name}.1", t.left), split(f"{name}.2", t.right))
        if t == UNIT:
            return UNIT_TERM
        ctx.append((name, t))
        return Var(name)

    binding = {var: split(var, t) for var, t in eq.ctx}
    return Equation(Context.of(*ctx), _subst(eq.lhs, binding), _subst(eq.rhs, binding))


def _random_product_chases():
    """(schema, generators, ground equations), 40 of them from a fixed seed,
    over theories with a finite free model, where f and g are inverse and
    h idempotent, whose other equations bind products and the unit and
    take pairs apart."""
    rng = random.Random(13)
    e, f = Base("E"), Base("F")
    p, q, u, x, y = Var("p"), Var("q"), Var("u"), Var("x"), Var("y")
    base = [Equation(Context.of(("x", e)), App("g", App("f", x)), x),
            Equation(Context.of(("y", f)), App("f", App("g", y)), y),
            Equation(Context.of(("x", e)), App("h", App("h", x)), App("h", x))]
    templates = [
        Equation(Context.of(("p", Prod(e, e))), App("h", Proj1(p)), App("h", Proj2(p))),
        Equation(Context.of(("p", Prod(e, f))),
                 App("g", Proj2(p)), App("h", App("h", Proj1(p)))),
        Equation(Context.of(("u", UNIT), ("x", e)),
                 App("h", App("h", x)), App("h", Proj1(Pair(x, u)))),
        Equation(Context.of(("q", Prod(f, Prod(e, f)))), App("f", Proj1(Proj2(q))),
                 Proj2(Pair(Proj1(q), App("f", App("g", Proj1(q)))))),
        Equation(Context.of(("x", e)), Proj2(Pair(x, App("f", x))), App("f", App("h", x))),
        Equation(Context.of(("p", Prod(e, Prod(e, UNIT)))),
                 Pair(App("f", Proj1(p)), Proj2(Proj2(p))),
                 Pair(App("f", Proj1(Proj2(p))), UNIT_TERM)),
        Equation(Context.of(("y", f)), App("name", App("g", y)), Lit("String", "n")),
        Equation(Context.of(("p", Prod(f, e))),
                 Proj1(Pair(App("h", App("g", Proj1(p))), Proj2(p))),
                 App("h", Proj2(Pair(Proj1(p), App("g", Proj1(p)))))),
    ]
    sig = Signature.of({"E", "F", "String"}, {"f": (e, f), "g": (f, e), "h": (e, e),
                                              "name": (e, Base("String"))})
    for _ in range(40):
        equations = base + [eq for eq in templates if rng.random() < 0.3]
        s = FqlSchema(Theory.of(sig, equations), frozenset({"E", "F"}), frozenset({"String"}))
        generators = {f"e{k}": "E" for k in range(rng.randint(0, 2))}
        generators.update({f"d{k}": "F" for k in range(rng.randint(0, 2))})
        both = {"e0", "d0"} <= generators.keys()
        ground = [(App("f", Var("e0")), Var("d0"))] if both else []
        yield s, generators, ground


def test_product_binders_range_over_tuples_of_roots():
    """The chase on tables gives a theory with product-typed binders the
    outcome of its expansion into a binder per base component, exactly,
    and a model that satisfies the theory; the e-graph chase of the
    expansion gives the same model on every one of them."""
    for s, generators, ground in _random_product_chases():
        flat = FqlSchema(Theory.of(s.sig, [_expanded(eq) for eq in s.theory.equations]),
                         s.entity_types, s.attribute_types)
        got = initial_model(s, generators, ground, 8)
        assert got == initial_model(flat, generators, ground, 8)
        assert check_instance(s, got).all_ok
        assert got == egraph_initial_model(flat, generators, ground, 8)


def test_pairs_fixture_matches_the_egraph_chase():
    """sigma and pi along `wrapped`, whose images and target equations
    build pairs and take them apart."""
    elab = elaborate(parse((FIXTURES / "pairs.qinl").read_text(encoding="utf-8")))
    calls = []
    for migrate in (sigma, pi):
        calls += _migration_chases(lambda: migrate(elab.mappings["wrapped"],
                                                   elab.instances["team"]))
    assert len(calls) == 4
    for args in calls:
        assert_tables_match_egraph(*args)
