from __future__ import annotations

import pytest

from qinl.chase import FuelExhausted, InconsistentConstants, initial_model
from qinl.equality import Equation, IllTyped, Theory
from qinl.kernel import App, Base, Context, Lit, Signature, Var
from qinl.schema import FqlSchema, LabelledNull, OpApplied, check_instance

from conftest import company_schema, entity_schema
from oracles import ground_closure


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


def test_randomized_chase_outputs_satisfy_their_theories():
    """Free models over varied collapsing schemas always pass the
    satisfaction check when the chase saturates."""
    import random
    from qinl.chase import FuelExhausted

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
    saturated = 0
    for _ in range(40):
        s = rng.choice(schemas)
        gen_count = rng.randint(0, 3)
        generators = {f"e{k}": "E" for k in range(gen_count)}
        equations = []
        if gen_count >= 2 and rng.random() < 0.5:
            equations.append((Var("e0"), Var("e1")))
        try:
            model = initial_model(s, generators, equations, fuel=12)
        except FuelExhausted:
            continue
        saturated += 1
        assert check_instance(s, model).all_ok
    assert saturated >= 30
