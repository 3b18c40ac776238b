from __future__ import annotations

import random
from pathlib import Path

import pytest

from qinl import chase, migration
from qinl.chase import (
    FuelExhausted,
    InconsistentConstants,
    UnstatedNull,
    initial_model,
    saturate,
)
from qinl.equality import EGraph, Equation, IllTyped, Theory
from qinl.kernel import (
    UNIT,
    UNIT_TERM,
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
    Var,
    format_term,
)
from qinl.migration import pi, sigma
from qinl.schema import FqlSchema, LabelledNull, OpApplied, check_instance
from qinl.surface import elaborate, parse

from conftest import company_schema, entity_schema, nulls_case
from oracles import (
    add_instance,
    enumerate_all_tuples,
    ground_closure,
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
    gave: one fresh element per round."""
    s = entity_schema({"P"}, {"next": ("P", "P")})
    with pytest.raises(FuelExhausted) as exc:
        initial_model(s, {"p": "P"}, [], fuel=24)
    assert str(exc.value) == (
        "chase did not saturate within fuel (partial model size 25)")


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
# The semi-naive chase against its all-tuples loop, and extraction against
# the sweep that builds every term.


def _chase_with(enumerate_pass, s, generators, equations, fuel, images=None):
    """`saturate` with `enumerate_pass` as the e-graph's enumeration pass:
    the graph it ends with, its round count, and its FuelExhausted message
    (None when it saturates)."""
    graphs = []

    def spy(graph, eqs, since=0):
        graphs.append(graph)
        enumerate_pass(graph, eqs, since)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EGraph, "apply_equations_enumerated", spy)
        try:
            saturate(s, generators, equations, fuel, images)
            error = None
        except FuelExhausted as exc:
            error = str(exc)
    return graphs[-1], len(graphs), error


def _partition(graph) -> list[int]:
    return [graph.find(node) for node in range(graph.node_count())]


def assert_chase_matches_oracles(s, generators, equations=(), fuel=8,
                                 images=None) -> None:
    """The semi-naive chase ends with the nodes, classes, round count and
    outcome of the all-tuples loop, and extraction agrees with the sweep."""
    graph, rounds, error = _chase_with(
        EGraph.apply_equations_enumerated, s, generators, equations, fuel, images)
    want, want_rounds, want_error = _chase_with(
        enumerate_all_tuples, s, generators, equations, fuel, images)
    assert (rounds, error) == (want_rounds, want_error)
    assert graph._nodes == want._nodes
    assert _partition(graph) == _partition(want)
    assert graph.extract() == sweep_extract(graph)


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
    seeds = substitute_images(equations, images)
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


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_semi_naive_chase_matches_all_tuples_on_two_variables_and_none(order):
    """g(x) = h(y) for all x, y: the chain equation makes new F classes
    in the first pass, which the second pass pairs with the older E root,
    whichever variable comes first.  The equation with an empty context is
    instantiated in the first pass only; its string literals need escapes
    in the extracted text."""
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
    assert len(graph.classes_of_type(Base("G"))) == 1
    texts = {format_term(t) for t in graph.extract().values()}
    assert {'"a\\"b"', '"b\\"a"', "g(a)", "name(g(a))"} <= texts


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


def _product_graph() -> EGraph:
    """Pairs, projections and the unit, after the product axioms."""
    prod = Prod(Base("E"), Base("E"))
    sig = Signature.of({"E"}, {"f": (Base("E"), Base("E")),
                               "swap": (prod, prod),
                               "drop": (Base("E"), UNIT)})
    graph = EGraph(sig)
    a = graph.add_node(("var", "a"), Base("E"))
    p = graph.add_node(("var", "p"), prod)
    binding = {"a": a, "p": p}
    for term in (App("swap", Pair(Var("a"), App("f", Var("a")))),
                 Proj2(App("swap", Var("p"))),
                 Pair(Proj1(Var("p")), App("drop", Var("a")))):
        add_instance(graph, term, binding)
    graph.union(add_instance(graph, Proj1(App("swap", Var("p"))), binding),
                add_instance(graph, Proj2(Var("p")), binding))
    # (a, a) loses to swap(p) by size (3 to 2), not by text.
    graph.union(add_instance(graph, App("swap", Var("p")), binding),
                add_instance(graph, Pair(Var("a"), Var("a")), binding))
    for _ in range(3):
        graph.apply_product_axioms()
        graph.rebuild()
    return graph


def test_extract_matches_the_sweep_on_products():
    """Each class gets the term the sweep over every node picks."""
    graph = _product_graph()
    reps = graph.extract()
    assert reps == sweep_extract(graph)
    assert len(reps) == len(graph.class_roots())
    assert UNIT_TERM in reps.values() and App("swap", Var("p")) in reps.values()


def assert_extract_at_roots_matches_the_sweep(graph) -> None:
    """`extract` at the classes of each type, and at those of every other
    type, gives each of those classes the term the sweep picks."""
    want = sweep_extract(graph)
    roots = graph.class_roots()
    for t in {graph.class_type(root) for root in roots}:
        for chosen in (graph.classes_of_type(t),
                       [root for root in roots if graph.class_type(root) != t]):
            got = graph.extract(chosen)
            assert ({root: got[root] for root in chosen if root in got}
                    == {root: want[root] for root in chosen if root in want})


def test_extract_at_roots_matches_the_sweep():
    """On products, where a projection reaches a product class from a
    class of its component type, and on the chases of the fixture
    migrations, of migrations with nulls and of pairs of entities."""
    graphs = [_product_graph()]
    record = EGraph.extract

    def spy(graph, roots=None):
        graphs.append(graph)
        return record(graph, roots)

    pairs = entity_schema({"E"}, {}, [Equation(
        Context.of(("x", Base("E")), ("y", Base("E"))),
        Pair(Var("x"), Var("y")), Pair(Var("x"), Var("y")))])
    rng = random.Random(5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EGraph, "extract", spy)
        for path in sorted(FIXTURES.glob("*.qinl")):
            elab = elaborate(parse(path.read_text(encoding="utf-8")))
            for mapping in elab.mappings.values():
                for name, i in elab.instances.items():
                    if elab.schemas.get(elab.instance_schema[name]) == mapping.source:
                        for migrate in (sigma, pi):
                            _outcome(lambda: migrate(mapping, i))
        for _ in range(20):
            schemas, rest = nulls_case(rng)
            elab = elaborate(parse(schemas + rest))
            for migrate in (sigma, pi):
                _outcome(lambda: migrate(elab.mappings["M"], elab.instances["I"], fuel=8))
        initial_model(pairs, {"a": "E", "b": "E"}, fuel=8)
    assert len(graphs) >= 40
    assert any(graph._projections for graph in graphs[1:])
    for graph in graphs:
        assert_extract_at_roots_matches_the_sweep(graph)
